// SERVE — resident-loop throughput: warm caches, and open-connection scale.
//
// Two claims are on trial. First, the classic one: a resident serve process
// amortizes everything but the solve itself — one registry, one pool, probe +
// result caches — so a warm pass over the same corpus is pure lookups (the
// cold/warm table, in-process stdio serve over temp files). Second, the event
// loop's claim: sessions are cheap heap state on one epoll loop, so THOUSANDS
// of open connections cost the server almost nothing — an active request mix
// pushed through 10 / 1,000 / 10,000 idle connections holds its req/s and
// latency.
//
// The open-connections axis runs a real unix-socket server (the same
// serve_unix the CLI runs), parks N idle connections on it, then drives an
// active mix of request-response clients and reports req/s with p50/p95
// latency per axis point. Both ends of every connection live in this one
// process, so RLIMIT_NOFILE is raised toward 2x the largest axis; when the
// hard limit says no, the axis is clamped — loudly — to what fits.
//
// Emits BENCH_serve.json (--json-out=PATH to override; --store=DIR also
// appends into that store's bench-history namespace).
//
//   --threads=N   solver-pool width for the wide rows (default: all cores)
//   --quick       CI-sized axes (10 / 200 idle, fewer requests)
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/store/warm_state.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "stdio_serve.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

// A request stream of `count` distinct framed instances (native text).
std::string build_request_stream(int count, int n_half, std::uint64_t seed) {
  std::ostringstream out;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Graph g = gilbert_bipartite(n_half, 2.0 / n_half, rng);
    std::vector<std::int64_t> speeds(3);
    for (auto& s : speeds) s = rng.uniform_int(1, 6);
    const auto inst =
        make_uniform_instance(unit_weights(2 * n_half), std::move(speeds), std::move(g));
    out << "instance r" << i << "\n";
    write_instance(out, inst);
  }
  return out.str();
}

double run_pass(const std::string& requests, unsigned threads, engine::WarmState& warm,
                std::uint64_t* answered) {
  engine::ServeOptions options;
  options.threads = threads;
  std::string sink;
  Timer timer;
  const auto stats = testing::serve_text(requests, options, &sink, &warm);
  const double seconds = timer.seconds();
  *answered = stats.ok;
  return seconds;
}

void throughput_table(unsigned wide_threads, bench::JsonReport& report) {
  TextTable t("serve throughput: cold vs. warm caches (Q gilbert, unit jobs)");
  t.set_header({"jobs", "requests", "threads", "cold req/s", "warm req/s", "warm/cold",
                "probe hits", "result hits"});
  const int kRequests = 200;
  for (int n_half : {50, 200}) {
    const std::string requests =
        build_request_stream(kRequests, n_half, bench::kBenchSeed + n_half);
    for (unsigned threads : {1u, wide_threads}) {
      engine::WarmState warm;
      std::uint64_t cold_ok = 0;
      std::uint64_t warm_ok = 0;
      const double cold_s = run_pass(requests, threads, warm, &cold_ok);
      const double warm_s = run_pass(requests, threads, warm, &warm_ok);
      const engine::CacheStats probe_stats = warm.profiles().stats();
      const engine::CacheStats result_stats = warm.results().stats();
      t.add_row({fmt_count(2 * n_half), fmt_count(kRequests), fmt_count(threads),
                 fmt_count(static_cast<long long>(cold_ok / cold_s)),
                 fmt_count(static_cast<long long>(warm_ok / warm_s)),
                 fmt_ratio(cold_s / warm_s),
                 fmt_count(static_cast<long long>(probe_stats.hits)),
                 fmt_count(static_cast<long long>(result_stats.hits))});
      report.add({{"bench_case", "serve_cold_warm"},
                  {"jobs", 2 * n_half},
                  {"requests", kRequests},
                  {"threads", static_cast<long long>(threads)},
                  {"cold_s", cold_s},
                  {"warm_s", warm_s},
                  {"warm_over_cold", cold_s / warm_s},
                  {"probe_hits", probe_stats.hits},
                  {"probe_misses", probe_stats.misses},
                  {"result_hits", result_stats.hits},
                  {"result_misses", result_stats.misses}});
      if (threads == wide_threads) break;  // wide == 1: avoid a duplicate row
    }
  }
  t.print(std::cout);
}

// ---- open-connections axis -------------------------------------------------

// Raises RLIMIT_NOFILE toward `want` and returns the number of idle sessions
// that actually fit (client fd + server fd each, with headroom for the
// process's own files). Clamping is reported loudly: a silently shrunken
// axis would read as "10k tested" when it was not.
std::size_t usable_idle_sessions(std::size_t want) {
  struct rlimit lim {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  const rlim_t needed = static_cast<rlim_t>(2 * want + 512);
  if (lim.rlim_cur < needed) {
    struct rlimit raised = lim;
    raised.rlim_cur = std::min<rlim_t>(lim.rlim_max, needed);
    ::setrlimit(RLIMIT_NOFILE, &raised);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  const std::size_t fit =
      lim.rlim_cur > 512 ? (static_cast<std::size_t>(lim.rlim_cur) - 512) / 2 : 0;
  if (fit < want) {
    std::cerr << "bench_serve_throughput: RLIMIT_NOFILE (" << lim.rlim_cur
              << ", hard " << lim.rlim_max << ") CLAMPS the open-connections"
              << " axis to " << fit << " idle sessions (wanted " << want
              << "; raise `ulimit -n` to run the full axis)\n";
  }
  return std::min(fit, want);
}

int connect_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string error;
    const int fd = engine::unix_connect(socket_path, &error);
    if (fd >= 0) return fd;
    ::usleep(5'000);
  }
  return -1;
}

struct AxisPoint {
  double req_per_s = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  std::size_t requests = 0;
  bool ok = false;
};

// One axis point: a serve_unix server, `idle` parked connections, then
// `clients` active loops of `per_client` solves each, keeping up to `window`
// requests in flight per connection (1 = classic request-response; >1
// exercises pipelining).
AxisPoint run_axis_point(std::size_t idle, int clients, int per_client, int window,
                         const std::string& text) {
  AxisPoint point;
  const auto dir = fs::temp_directory_path() / "bisched_bench_serve_axis";
  fs::create_directories(dir);
  const std::string socket_path =
      (dir / ("serve-" + std::to_string(::getpid()) + ".sock")).string();
  fs::remove(socket_path);

  engine::ServeOptions options;
  options.threads = 2;  // the solver pool; solves here are cache-sized
  options.stable_output = true;
  engine::ServeStats stats;
  std::string serve_error;
  std::thread server([&] {
    stats = engine::serve_unix(engine::SolverRegistry::builtin(), socket_path,
                               options, &serve_error);
  });

  std::vector<int> idle_fds;
  idle_fds.reserve(idle);
  for (std::size_t i = 0; i < idle; ++i) {
    const int fd = connect_retry(socket_path);
    if (fd < 0) break;
    idle_fds.push_back(fd);
  }

  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  Timer wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      const int fd = connect_retry(socket_path);
      if (fd < 0) return;
      engine::FdTransport transport(fd);
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(per_client));
      std::vector<std::chrono::steady_clock::time_point> sent_at(
          static_cast<std::size_t>(per_client));
      std::string line;
      int sent = 0;
      int got = 0;
      while (got < per_client) {
        while (sent < per_client && sent - got < window) {
          sent_at[static_cast<std::size_t>(sent)] = std::chrono::steady_clock::now();
          transport.out() << "instance c" << c << "-" << sent << "\n" << text;
          ++sent;
        }
        transport.out().flush();
        if (!std::getline(transport.in(), line)) break;
        // FIFO attribution: exact, responses leave in per-session send order.
        const auto end = std::chrono::steady_clock::now();
        mine.push_back(std::chrono::duration<double, std::milli>(
                           end - sent_at[static_cast<std::size_t>(got)])
                           .count());
        ++got;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double active_s = wall.seconds();

  const int bye = connect_retry(socket_path);
  if (bye >= 0) {
    const char* msg = "shutdown\n";
    (void)!::write(bye, msg, std::strlen(msg));
    ::close(bye);
  }
  server.join();
  for (const int fd : idle_fds) ::close(fd);
  fs::remove(socket_path);

  std::vector<double> merged;
  for (const auto& m : latencies) merged.insert(merged.end(), m.begin(), m.end());
  if (merged.empty() || idle_fds.size() < idle) return point;
  std::sort(merged.begin(), merged.end());
  point.requests = merged.size();
  point.req_per_s = static_cast<double>(merged.size()) / active_s;
  point.p50_ms = merged[merged.size() / 2];
  point.p95_ms = merged[std::min(merged.size() - 1, merged.size() * 95 / 100)];
  point.ok = serve_error.empty() &&
             merged.size() ==
                 static_cast<std::size_t>(clients) * static_cast<std::size_t>(per_client);
  return point;
}

void open_connections_table(bool quick, bench::JsonReport& report) {
  // The active mix is deliberately light (cache-warm solves): the axis
  // measures the serve loop's cost per connection, not the solver.
  Rng rng(bench::kBenchSeed);
  Graph g = gilbert_bipartite(10, 0.2, rng);
  std::vector<std::int64_t> speeds{3, 2, 1};
  const auto inst = make_uniform_instance(unit_weights(20), std::move(speeds),
                                          std::move(g));
  std::ostringstream text_stream;
  write_instance(text_stream, inst);
  const std::string text = text_stream.str();

  const int clients = 4;
  const int per_client = quick ? 50 : 200;
  const int kPipelineWindow = 16;
  std::vector<std::size_t> axis =
      quick ? std::vector<std::size_t>{10, 200}
            : std::vector<std::size_t>{10, 1000, 10000};
  const std::size_t cap = usable_idle_sessions(axis.back());
  for (auto& idle : axis) idle = std::min(idle, cap);
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());

  TextTable t("open connections: active mix through N idle sessions (4 clients)");
  t.set_header({"idle conns", "window", "requests", "req/s", "p50 ms", "p95 ms"});
  for (const std::size_t idle : axis) {
    for (const int window : {1, kPipelineWindow}) {
      const AxisPoint p = run_axis_point(idle, clients, per_client, window, text);
      t.add_row({fmt_count(static_cast<long long>(idle)), fmt_count(window),
                 fmt_count(static_cast<long long>(p.requests)),
                 fmt_count(static_cast<long long>(p.req_per_s)), fmt_ratio(p.p50_ms),
                 fmt_ratio(p.p95_ms)});
      report.add({{"bench_case", "serve_open_connections"},
                  {"idle_connections", static_cast<long long>(idle)},
                  {"window", window},
                  {"requests", p.requests},
                  {"req_per_s", p.req_per_s},
                  {"p50_ms", p.p50_ms},
                  {"p95_ms", p.p95_ms},
                  {"complete", p.ok}});
    }
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main(int argc, char** argv) {
  using namespace bisched;
  const unsigned threads = bench::parse_threads(argc, argv);
  const bool quick = bench::parse_switch(argc, argv, "quick");
  bench::banner("SERVE — streaming request-loop throughput",
                "A resident serve process answers repeated traffic without "
                "re-probing or re-solving; the event loop holds its req/s "
                "with thousands of idle connections parked on it");
  std::cout << "threads (wide rows): " << threads << "\n";
  bench::JsonReport report("serve", argc, argv);
  throughput_table(threads, report);
  open_connections_table(quick, report);
  return report.write() ? 0 : 1;
}
