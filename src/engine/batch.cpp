#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bisched::engine {

namespace fs = std::filesystem;

std::vector<std::string> collect_instance_paths(const std::string& path, std::string* error) {
  std::vector<std::string> out;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file()) out.push_back(entry.path().string());
    }
    if (ec) {
      if (error != nullptr) *error = "cannot list '" + path + "': " + ec.message();
      return {};
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::ifstream manifest(path);
  if (!manifest) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return {};
  }
  const fs::path base = fs::path(path).parent_path();
  std::string line;
  while (std::getline(manifest, line)) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto end = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(start, end - start + 1);
    const fs::path p(entry);
    out.push_back(p.is_absolute() ? p.string() : (base / p).string());
  }
  return out;
}

std::vector<std::string> shard_paths(const std::vector<std::string>& paths,
                                     const Shard& shard) {
  BISCHED_CHECK(shard.valid(), "invalid shard assignment");
  std::vector<std::string> out;
  out.reserve(paths.size() / static_cast<std::size_t>(shard.count) + 1);
  for (std::size_t i = static_cast<std::size_t>(shard.index); i < paths.size();
       i += static_cast<std::size_t>(shard.count)) {
    out.push_back(paths[i]);
  }
  return out;
}

namespace {

// Best-effort canonical form: resolves symlinks/.. for the existing prefix
// of the path and normalizes the rest, so two spellings of one location
// compare equal whether or not the file exists yet.
fs::path normalized(const std::string& path) {
  std::error_code ec;
  const fs::path abs = fs::absolute(path, ec);
  if (ec) return fs::path(path).lexically_normal();
  fs::path canon = fs::weakly_canonical(abs, ec);
  if (ec) return abs.lexically_normal();
  return canon;
}

}  // namespace

std::size_t exclude_output_path(std::vector<std::string>& paths,
                                const std::string& out_path) {
  const fs::path target = normalized(out_path);
  return std::erase_if(paths, [&](const std::string& p) {
    std::error_code ec;
    if (fs::equivalent(p, out_path, ec)) return true;
    return normalized(p) == target;
  });
}

bool path_inside_directory(const std::string& path, const std::string& dir) {
  const fs::path file = normalized(path);
  const fs::path base = normalized(dir);
  if (file == base) return false;
  const auto mismatch =
      std::mismatch(base.begin(), base.end(), file.begin(), file.end());
  return mismatch.first == base.end();
}

BatchRunner::BatchRunner(const SolverRegistry& registry, BatchOptions options,
                         WarmState* warm)
    : registry_(registry), options_(std::move(options)), warm_(warm) {
  if (warm_ == nullptr) {
    owned_warm_ = std::make_unique<WarmState>();
    warm_ = owned_warm_.get();
  }
}

BatchRow BatchRunner::run_one(const std::string& path, std::int64_t seq) const {
  SolveRequest request;
  request.path = path;
  BatchRow row = run_request(registry_, *warm_, request, options_.alg, options_.solve);
  row.seq = seq;
  if (options_.stable_output) row.strip_timing();
  return row;
}

void BatchRunner::run_streaming(const std::vector<std::string>& paths,
                                const std::function<void(const BatchRow&)>& sink) const {
  const std::vector<std::string> mine = shard_paths(paths, options_.shard);
  const unsigned threads =
      options_.threads != 0 ? options_.threads : default_thread_count();

  // Bounded work queue: workers race on a shared cursor instead of the pool
  // queuing one closure per instance, so in-flight state is O(threads) and
  // the first finished rows reach the sink while the corpus is still being
  // consumed. `seq` is the *global* pre-shard index of the instance — shard
  // outputs of one corpus therefore merge without seq collisions, and every
  // row keeps the same seq it would get in an unsharded run.
  std::atomic<std::size_t> next{0};
  std::mutex sink_mu;
  ThreadPool pool(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= mine.size()) return;
        const std::size_t global = static_cast<std::size_t>(options_.shard.index) +
                                   i * static_cast<std::size_t>(options_.shard.count);
        const BatchRow row = run_one(mine[i], static_cast<std::int64_t>(global));
        std::lock_guard<std::mutex> lock(sink_mu);
        sink(row);
      }
    });
  }
  pool.wait_idle();
}

std::vector<BatchRow> BatchRunner::run(const std::vector<std::string>& paths) const {
  std::vector<BatchRow> rows;
  run_streaming(paths, [&rows](const BatchRow& row) { rows.push_back(row); });
  std::sort(rows.begin(), rows.end(),
            [](const BatchRow& a, const BatchRow& b) { return a.seq < b.seq; });
  return rows;
}

void write_rows_csv(std::ostream& out, std::span<const BatchRow> rows) {
  write_response_header_csv(out);
  for (const BatchRow& row : rows) write_response_csv(out, row);
}

void write_rows_json(std::ostream& out, std::span<const BatchRow> rows) {
  for (const BatchRow& row : rows) write_response_json(out, row);
}

}  // namespace bisched::engine
