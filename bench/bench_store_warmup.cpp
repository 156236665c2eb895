// STORE — warm-state store: cold vs. same-process warm vs. cross-process warm.
//
// The warm-state store's pitch is that "warm" survives the process: a fleet
// shard pointed at a populated --store directory answers repeat traffic from
// the disk tier instead of re-solving. This harness measures the three
// regimes over one corpus through the same api::run_parsed path serve and
// batch use:
//
//   cold         fresh WarmState over an empty store — every request probes
//                and solves, write-through populating both namespaces.
//   warm_memory  the same WarmState again — every solve served from the
//                in-memory tier (the PR 3 result-cache regime).
//   warm_disk    a FRESH WarmState over the same directory after a
//                checkpoint — the memory tiers start empty, exactly what a
//                new process boots with, so every solve decodes off the
//                disk tier. (The literal two-process round trip is proven
//                by tests/engine/store_test.cpp and the ci.sh smoke; this
//                row prices it.)
//
// Outputs are asserted identical across all three regimes (same solver,
// same makespan per instance) — the store may only change WHERE an answer
// comes from, never the answer. Emits BENCH_store.json (--json-out=PATH to
// override) with one row per regime including req/s, speedup_vs_cold, and
// p50/p95/p99 per-request latency from a telemetry histogram — the same
// bucket ladder and percentile math the serve scrape path exposes.
//
//   --quick       CI-sized corpus (validates the harness, not the numbers)
//   --requests=N  corpus size override
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/api.hpp"
#include "engine/registry.hpp"
#include "engine/store/warm_state.hpp"
#include "engine/telemetry/metrics.hpp"
#include "io/format.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;
namespace telemetry = engine::telemetry;

std::vector<ParsedInstance> build_corpus(int count, int n_half, std::uint64_t seed) {
  std::vector<ParsedInstance> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Graph g = gilbert_bipartite(n_half, 2.0 / n_half, rng);
    std::vector<std::int64_t> speeds(3);
    for (auto& s : speeds) s = rng.uniform_int(1, 6);
    const auto inst =
        make_uniform_instance(unit_weights(2 * n_half), std::move(speeds), std::move(g));
    // Round-trip through the native format so the hash path matches what a
    // file-driven corpus sees.
    std::ostringstream text;
    write_instance(text, inst);
    std::istringstream in(text.str());
    corpus.push_back(parse_instance(in));
  }
  return corpus;
}

struct Pass {
  double seconds = 0;
  std::vector<std::string> makespans;  // per-instance, for cross-regime equality
  telemetry::HistogramSnapshot latency;  // per-request, serve's bucket ladder
};

Pass run_pass(const std::vector<ParsedInstance>& corpus, engine::WarmState& warm) {
  Pass pass;
  pass.makespans.reserve(corpus.size());
  telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
  Timer timer;
  for (const auto& parsed : corpus) {
    Timer per_request;
    const auto row = engine::run_parsed(engine::SolverRegistry::builtin(), warm, "auto",
                                        {}, parsed);
    latency.observe(per_request.millis());
    if (!row.ok) {
      std::cerr << "store bench: solve failed: " << row.error << "\n";
      std::exit(1);
    }
    pass.makespans.push_back(row.makespan);
  }
  pass.seconds = timer.seconds();
  pass.latency = latency.snapshot();
  return pass;
}

void report_row(bench::JsonReport& report, TextTable& t, const char* phase,
                const Pass& pass, double cold_s, std::size_t requests,
                const engine::CacheStats& results) {
  const double req_s = static_cast<double>(requests) / pass.seconds;
  t.add_row({phase, fmt_count(static_cast<long long>(requests)),
             fmt_count(static_cast<long long>(req_s)), fmt_ratio(cold_s / pass.seconds),
             fmt_double(pass.latency.percentile(0.95), 2),
             fmt_count(static_cast<long long>(results.hits)),
             fmt_count(static_cast<long long>(results.disk_hits))});
  report.add({{"bench_case", "store_warmup"},
              {"phase", phase},
              {"requests", requests},
              {"seconds", pass.seconds},
              {"req_per_s", req_s},
              {"speedup_vs_cold", cold_s / pass.seconds},
              {"p50_ms", pass.latency.percentile(0.5)},
              {"p95_ms", pass.latency.percentile(0.95)},
              {"p99_ms", pass.latency.percentile(0.99)},
              {"result_hits_memory", results.hits},
              {"result_hits_disk", results.disk_hits},
              {"result_misses", results.misses}});
}

}  // namespace
}  // namespace bisched

int main(int argc, char** argv) {
  using namespace bisched;
  const bool quick = bench::parse_switch(argc, argv, "quick");
  const int default_requests = quick ? 20 : 80;
  const int requests = static_cast<int>(
      std::stoll("0" + bench::parse_flag(argc, argv, "requests",
                                         std::to_string(default_requests))));
  const int n_half = quick ? 40 : 120;

  bench::banner("STORE — persistent warm-state store",
                "Warm survives the process: a fresh handle over a populated "
                "--store directory answers from the disk tier instead of "
                "re-solving");

  const fs::path dir = fs::temp_directory_path() / "bisched_bench_store";
  fs::remove_all(dir);
  engine::WarmOptions options;
  options.store_dir = dir.string();

  const auto corpus = build_corpus(requests, n_half, bench::kBenchSeed);
  bench::JsonReport report("store", argc, argv);
  TextTable t("store warm-up: cold vs. warm-memory vs. cross-process warm-disk");
  t.set_header({"phase", "requests", "req/s", "speedup", "p95 ms", "mem hits", "disk hits"});

  std::string message;
  Pass cold;
  Pass warm_memory;
  {
    engine::WarmState first(options, &message);
    if (!message.empty()) std::cerr << "store bench: " << message << "\n";
    cold = run_pass(corpus, first);
    report_row(report, t, "cold", cold, cold.seconds,
               static_cast<std::size_t>(requests), first.results().stats());

    const auto before = first.results().stats();
    warm_memory = run_pass(corpus, first);
    auto after = first.results().stats();
    // This pass's deltas only (the cold pass's misses are not its misses).
    after.hits -= before.hits;
    after.disk_hits -= before.disk_hits;
    after.misses -= before.misses;
    report_row(report, t, "warm_memory", warm_memory, cold.seconds,
               static_cast<std::size_t>(requests), after);
    std::string error;
    if (!first.checkpoint(&error)) {
      std::cerr << "store bench: checkpoint failed: " << error << "\n";
      return 1;
    }
  }

  // A fresh handle over the populated directory: empty memory tiers, exactly
  // what a new process boots with.
  engine::WarmState second(options, &message);
  const Pass warm_disk = run_pass(corpus, second);
  report_row(report, t, "warm_disk", warm_disk, cold.seconds,
             static_cast<std::size_t>(requests), second.results().stats());

  // The store must never change an answer — only where it came from.
  if (warm_memory.makespans != cold.makespans || warm_disk.makespans != cold.makespans) {
    std::cerr << "store bench: warm outputs diverged from cold outputs\n";
    return 1;
  }
  const auto disk_stats = second.results().stats();
  if (disk_stats.disk_hits != static_cast<std::uint64_t>(requests)) {
    std::cerr << "store bench: expected every warm_disk solve off the disk tier, got "
              << disk_stats.disk_hits << "/" << requests << "\n";
    return 1;
  }

  t.print(std::cout);
  std::cout << "store dir: " << dir.string() << " (removed)\n";
  fs::remove_all(dir);
  return report.write() ? 0 : 1;
}
