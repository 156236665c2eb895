// HOTPATHS — before/after microbenches for the profiled hot paths: the
// R2 FPTAS DP row (the workhorse behind Theorem 22, Algorithm 1 step 3,
// and every Q2 solver), the exact R2 DP (the r2exact/q2r2exact kernel),
// Dinic's min-cut (Algorithm 1's independent-set step) and the exact
// branch-and-bound (the portfolio's first try for n <= 64). "Before" is the seed kernel preserved verbatim in
// tests/reference_kernels.hpp; "after" is the shipped library. Every
// comparison also checks the outputs — bit-identical for the exact R2 DP and
// the min-cut kernels; for the FPTAS (one pass from the lower bound, the
// seed binary-searched) within (1+eps) of the exact optimum and no worse
// than greedy; for the B&B, every shipped schedule valid, of the makespan
// it reports and not below the lower bound, and the seed's optimum wherever
// the seed search finishes — the differential tests prove it exhaustively,
// this is the tripwire in the timing loop.
//
// Emits BENCH_hotpaths.json (override with --json-out=PATH) with one row per
// configuration: wall times, instance size, the speedup, and p50/p95/p99 of
// the shipped kernel's per-trial latency from a telemetry histogram (the same
// bucket ladder and percentile math the serve scrape path exposes) — the
// repo's perf trajectory, validated by tools/ci.sh. --quick shrinks sizes
// and repetitions for the 1-CPU sanitized CI runner.
//
//   --quick          CI-sized run (seconds, not minutes)
//   --json-out=PATH  where to write the JSON report
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/exact_bb.hpp"
#include "core/r2_algorithms.hpp"
#include "engine/telemetry/metrics.hpp"
#include "graph/maxflow.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "reference_kernels.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/makespan_solvers.hpp"
#include "sched/simd_dispatch.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace telemetry = engine::telemetry;

// Forces the R2 row kernels onto one ISA level for a scope (BISCHED_SIMD +
// refresh), restoring detection-resolved dispatch on the way out.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdLevel level) {
    ::setenv("BISCHED_SIMD", to_string(level), 1);
    simd_refresh_level();
  }
  ~ScopedSimd() {
    ::unsetenv("BISCHED_SIMD");
    simd_refresh_level();
  }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
};

std::vector<R2Job> random_r2_jobs(int n, std::int64_t tmax, Rng& rng) {
  std::vector<R2Job> jobs(static_cast<std::size_t>(n));
  for (auto& job : jobs) {
    job.p1 = rng.uniform_int(1, tmax);
    job.p2 = rng.uniform_int(1, tmax);
  }
  return jobs;
}

// True when an FPTAS makespan keeps its promise: <= (1+eps) * opt and <=
// greedy's makespan.
bool within_guarantee(std::int64_t cmax, std::int64_t opt, std::int64_t greedy, double eps) {
  return static_cast<double>(cmax) <= (1.0 + eps) * static_cast<double>(opt) + 1e-9 &&
         cmax <= greedy;
}

// r2_fptas: the seed's binary search against the shipped one DP pass from
// the lower bound, per ISA. OPT comes from the shipped r2_exact, which the
// differential tests pin to the seed's exact search at every level. The
// instances, the seed answers with their timings, OPT and greedy do not
// depend on the dispatch level, so they are computed once per instance,
// outside the ISA sweep, as in r2_exact_bench.
void r2_kernel_bench(bench::JsonReport& report, bool quick) {
  TextTable t("R2 FPTAS: seed binary search vs one DP pass, per ISA");
  t.set_header({"isa", "n", "eps", "trials", "seed ms", "opt ms", "speedup",
                "cmax vs seed", "within guarantee"});
  const int trials = quick ? 2 : 5;
  const std::vector<std::pair<int, double>> shapes =
      quick ? std::vector<std::pair<int, double>>{{60, 0.1}, {120, 0.05}}
            : std::vector<std::pair<int, double>>{
                  {200, 0.1}, {200, 0.05}, {400, 0.05}, {400, 0.02}};
  struct Config {
    int n = 0;
    double eps = 0;
    std::vector<std::vector<R2Job>> instances;
    std::vector<std::int64_t> opt;
    std::vector<std::int64_t> greedy;
    double seed_ms = 0;
    double seed_cmax = 0;  // summed makespans, for the quality column
  };
  std::vector<Config> configs;
  for (const auto& [n, eps] : shapes) {
    Config c;
    c.n = n;
    c.eps = eps;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + 17,
                          static_cast<std::uint64_t>(n) * 131 +
                              static_cast<std::uint64_t>(trial) * 7 +
                              static_cast<std::uint64_t>(eps * 1e4)));
      c.instances.push_back(random_r2_jobs(n, 1000, rng));
      const auto& jobs = c.instances.back();
      Timer timer;
      c.seed_cmax += static_cast<double>(reference::r2_fptas(jobs, eps).cmax);
      c.seed_ms += timer.millis();
      c.opt.push_back(r2_exact(jobs).cmax);
      c.greedy.push_back(r2_greedy(jobs).cmax);
    }
    configs.push_back(std::move(c));
  }
  // One axis per dispatch level this host can run: the scalar row is the
  // portable floor, and the AVX2 vs AVX-512 rows isolate the lane-width win.
  for (const SimdLevel level : simd_available_levels()) {
    ScopedSimd forced(level);
    const char* isa = to_string(level);
    for (const Config& c : configs) {
      double opt_ms = 0;
      bool kept = true;
      double opt_cmax = 0;
      telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
      for (std::size_t trial = 0; trial < c.instances.size(); ++trial) {
        Timer timer;
        const std::optional<R2Result> after = r2_fptas(c.instances[trial], c.eps);
        const double trial_ms = timer.millis();
        opt_ms += trial_ms;
        latency.observe(trial_ms);
        kept = kept && after.has_value() &&
               within_guarantee(after->cmax, c.opt[trial], c.greedy[trial], c.eps);
        if (after.has_value()) opt_cmax += static_cast<double>(after->cmax);
      }
      const double speedup = opt_ms > 0 ? c.seed_ms / opt_ms : 0;
      const double cmax_vs_seed = c.seed_cmax > 0 ? opt_cmax / c.seed_cmax : 1;
      const auto lat = latency.snapshot();
      t.add_row({isa, fmt_count(c.n), fmt_double(c.eps, 2), fmt_count(trials),
                 fmt_double(c.seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
                 fmt_double(cmax_vs_seed, 4), fmt_bool(kept)});
      report.add({{"kernel", "r2_fptas"},
                  {"isa", isa},
                  {"n", c.n},
                  {"eps", c.eps},
                  {"trials", trials},
                  {"seed_ms", c.seed_ms},
                  {"opt_ms", opt_ms},
                  {"p50_ms", lat.percentile(0.5)},
                  {"p95_ms", lat.percentile(0.95)},
                  {"p99_ms", lat.percentile(0.99)},
                  {"speedup", speedup},
                  {"cmax_vs_seed", cmax_vs_seed},
                  {"within_guarantee", kept}});
    }
  }
  t.print(std::cout);
}

// The exact R2 kernel's input for a cold-mix-shaped instance: perfbench's
// R2 family (2*side jobs, times 0..1000 on both machines, side/2 conflicts
// across the halves) after the Algorithm-3 reduction, as r2_exact_bipartite
// hands it to r2_exact.
std::vector<R2Job> cold_mix_r2_kernel_jobs(int side, Rng& rng) {
  const int n = 2 * side;
  std::vector<std::vector<std::int64_t>> times(2, std::vector<std::int64_t>(
                                                      static_cast<std::size_t>(n)));
  for (auto& row : times) {
    for (auto& x : row) x = rng.uniform_int(0, 1000);
  }
  const Graph halves = random_bipartite_edges(side, side, side / 2, rng);
  return r2_exact_dp_jobs(
      reduce_r2_bipartite(make_unrelated_instance(std::move(times), halves)));
}

// r2_exact: the seed's binary search over push-kernel probes (tests/
// reference_kernels.hpp) against the shipped single DP pass at the greedy
// makespan, per ISA. The seed answers are timed once per instance — they
// do not depend on the dispatch level — and every row reports whether the
// one pass returned the seed's cmax and assignment on all of its trials.
void r2_exact_bench(bench::JsonReport& report, bool quick) {
  TextTable t("R2 exact: seed binary search vs one DP pass, cold-mix R2 shape, per ISA");
  t.set_header(
      {"isa", "side", "kernel jobs", "trials", "seed ms", "opt ms", "speedup", "identical"});
  const int trials = quick ? 2 : 5;
  const std::vector<int> sides = quick ? std::vector<int>{70} : std::vector<int>{70, 110, 150};
  struct Config {
    int side = 0;
    std::vector<std::vector<R2Job>> instances;
    std::vector<R2Result> seed;
    double seed_ms = 0;
  };
  std::vector<Config> configs;
  for (const int side : sides) {
    Config c;
    c.side = side;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + 61, static_cast<std::uint64_t>(side) * 131 +
                                                      static_cast<std::uint64_t>(trial)));
      c.instances.push_back(cold_mix_r2_kernel_jobs(side, rng));
      Timer timer;
      c.seed.push_back(reference::r2_exact(c.instances.back()));
      c.seed_ms += timer.millis();
    }
    configs.push_back(std::move(c));
  }
  for (const SimdLevel level : simd_available_levels()) {
    ScopedSimd forced(level);
    const char* isa = to_string(level);
    for (const Config& c : configs) {
      double opt_ms = 0;
      bool identical = true;
      std::size_t kernel_jobs = 0;
      telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
      for (std::size_t trial = 0; trial < c.instances.size(); ++trial) {
        kernel_jobs += c.instances[trial].size();
        Timer timer;
        const R2Result after = r2_exact(c.instances[trial]);
        const double trial_ms = timer.millis();
        opt_ms += trial_ms;
        latency.observe(trial_ms);
        identical = identical && c.seed[trial].cmax == after.cmax &&
                    c.seed[trial].on_machine2 == after.on_machine2;
      }
      const auto mean_jobs = static_cast<long long>(kernel_jobs / c.instances.size());
      const double speedup = opt_ms > 0 ? c.seed_ms / opt_ms : 0;
      const auto lat = latency.snapshot();
      t.add_row({isa, fmt_count(c.side), fmt_count(mean_jobs), fmt_count(trials),
                 fmt_double(c.seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
                 fmt_bool(identical)});
      report.add({{"kernel", "r2_exact"},
                  {"isa", isa},
                  {"side", c.side},
                  {"n", mean_jobs},
                  {"trials", trials},
                  {"seed_ms", c.seed_ms},
                  {"opt_ms", opt_ms},
                  {"p50_ms", lat.percentile(0.5)},
                  {"p95_ms", lat.percentile(0.95)},
                  {"p99_ms", lat.percentile(0.99)},
                  {"speedup", speedup},
                  {"identical", identical}});
    }
  }
  t.print(std::cout);
}

// The Algorithm-1 min-cut shape: a bipartite conflict graph turned into a
// flow network — source -> side-0 vertex (weight), side-0 -> side-1 neighbor
// (infinite), side-1 vertex -> sink (weight) — then max_flow + the residual
// BFS for the cut side.
template <typename DinicT>
std::pair<std::int64_t, std::int64_t> run_mincut(const Graph& g, int a,
                                                 const std::vector<std::int64_t>& w) {
  const int n = g.num_vertices();
  DinicT network(n + 2);
  const int source = n;
  const int sink = n + 1;
  for (int v = 0; v < n; ++v) {
    if (v < a) {
      network.add_edge(source, v, w[static_cast<std::size_t>(v)]);
      for (int u : g.neighbors(v)) network.add_edge(v, u, DinicT::kCapInfinity);
    } else {
      network.add_edge(v, sink, w[static_cast<std::size_t>(v)]);
    }
  }
  const std::int64_t flow = network.max_flow(source, sink);
  const auto side = network.min_cut_source_side(source);
  std::int64_t side_sum = 0;
  for (std::size_t v = 0; v < side.size(); ++v) {
    if (side[v]) side_sum += static_cast<std::int64_t>(v) + 1;
  }
  return {flow, side_sum};
}

void dinic_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Dinic min-cut (Algorithm 1 shape): intrusive lists vs CSR");
  t.set_header({"vertices", "edges", "reps", "seed ms", "opt ms", "speedup", "identical"});
  const std::vector<std::pair<int, int>> configs =
      quick ? std::vector<std::pair<int, int>>{{200, 2}}
            : std::vector<std::pair<int, int>>{{500, 4}, {2000, 4}, {2000, 16}};
  const int reps = quick ? 10 : 30;
  for (const auto& [a, degree] : configs) {
    Rng rng(derive_seed(bench::kBenchSeed + 31,
                        static_cast<std::uint64_t>(a) * 67 +
                            static_cast<std::uint64_t>(degree)));
    const Graph g =
        random_bipartite_edges(a, a, static_cast<std::int64_t>(a) * degree, rng);
    std::vector<std::int64_t> w(static_cast<std::size_t>(2 * a));
    for (auto& x : w) x = rng.uniform_int(1, 50);

    double seed_ms = 0;
    double opt_ms = 0;
    bool identical = true;
    telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      const auto before = run_mincut<reference::Dinic>(g, a, w);
      seed_ms += timer.millis();
      timer.reset();
      const auto after = run_mincut<Dinic>(g, a, w);
      const double rep_ms = timer.millis();
      opt_ms += rep_ms;
      latency.observe(rep_ms);
      identical = identical && before == after;
    }
    const double speedup = opt_ms > 0 ? seed_ms / opt_ms : 0;
    const auto lat = latency.snapshot();
    const auto edges = static_cast<long long>(g.num_edges());
    t.add_row({fmt_count(2 * a), fmt_count(edges), fmt_count(reps),
               fmt_double(seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
               fmt_bool(identical)});
    report.add({{"kernel", "dinic_mincut"},
                {"vertices", 2 * a},
                {"edges", edges},
                {"reps", reps},
                {"seed_ms", seed_ms},
                {"opt_ms", opt_ms},
                {"p50_ms", lat.percentile(0.5)},
                {"p95_ms", lat.percentile(0.95)},
                {"p99_ms", lat.percentile(0.99)},
                {"speedup", speedup},
                {"identical", identical}});
  }
  t.print(std::cout);
}


// The exact B&B on the two families the engine hands it. small-uniform is the
// perfbench cold-mix shape: 32-64 unit jobs on a Gilbert G(n,n,2/n) bipartite
// graph, 4 machines of speeds 1..8, at the engine's node budget — where the
// seed search runs out of nodes. crown-16 (16 jobs, p 1..10, four speed-2
// machines) is the routed-mix shape, which both searches prove in
// microseconds.
void exact_bb_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Exact branch-and-bound: seed DFS vs seeded incumbent + capacity/twin pruning");
  t.set_header({"family", "calls", "budget", "variant", "nodes", "truncated", "p50 ms",
                "p95 ms", "agree"});
  // The engine's budget (engine/registry.cpp); --quick caps it so the seed's
  // truncated calls stay short under the sanitizers.
  const std::uint64_t budget = quick ? 200'000 : 20'000'000;
  struct Family {
    const char* name;
    int calls;
  };
  const Family families[] = {{"small-uniform", quick ? 3 : 12}, {"crown-16", quick ? 40 : 400}};
  for (const Family& family : families) {
    std::vector<UniformInstance> insts;
    for (int call = 0; call < family.calls; ++call) {
      Rng rng(derive_seed(bench::kBenchSeed + 53, static_cast<std::uint64_t>(call)));
      if (family.name == std::string("crown-16")) {
        std::vector<std::int64_t> p(16);
        for (auto& x : p) x = rng.uniform_int(1, 10);
        insts.push_back(make_uniform_instance(std::move(p), {2, 2, 2, 2}, crown(8)));
      } else {
        const int side = 16 + (call * 16) / std::max(1, family.calls - 1);
        std::vector<std::int64_t> speeds(4);
        for (auto& sp : speeds) sp = rng.uniform_int(1, 8);
        insts.push_back(make_uniform_instance(std::vector<std::int64_t>(2 * side, 1),
                                              std::move(speeds),
                                              gilbert_bipartite(side, p_critical(2.0, side), rng)));
      }
    }
    std::vector<ExactUniformResult> seed_results;
    bool agree = true;
    for (const char* variant : {"seed", "shipped"}) {
      const bool is_seed = variant == std::string("seed");
      std::vector<double> ms;
      std::uint64_t nodes = 0;
      int truncated = 0;
      for (std::size_t k = 0; k < insts.size(); ++k) {
        Timer timer;
        ExactUniformResult r =
            is_seed ? reference::exact_uniform_bb(insts[k], budget,
                                                  std::chrono::steady_clock::time_point::max())
                    : exact_uniform_bb(insts[k], budget);
        ms.push_back(timer.millis());
        nodes += r.nodes;
        truncated += r.truncated ? 1 : 0;
        if (is_seed) {
          seed_results.push_back(std::move(r));
          continue;
        }
        // Every shipped answer, proven or truncated, is a valid schedule of
        // the makespan it reports, at or above the lower bound; where the
        // seed search finished, it is the same optimum.
        BISCHED_CHECK(r.feasible && validate(insts[k], r.schedule) == ScheduleStatus::kValid &&
                          makespan(insts[k], r.schedule) == r.cmax &&
                          r.cmax >= lower_bound(insts[k]),
                      "exact B&B returned an invalid or under-bound schedule");
        if (!seed_results[k].truncated) {
          agree = agree && r.feasible == seed_results[k].feasible &&
                  (!r.feasible || r.cmax == seed_results[k].cmax);
        }
      }
      const double p50 = bench::percentile(ms, 0.5);
      const double p95 = bench::percentile(ms, 0.95);
      t.add_row({family.name, fmt_count(family.calls), fmt_count(static_cast<long long>(budget)),
                 variant, fmt_count(static_cast<long long>(nodes)), fmt_count(truncated),
                 fmt_double(p50, 3), fmt_double(p95, 3), is_seed ? "-" : fmt_bool(agree)});
      report.add({{"kernel", "exact_bb"},
                  {"family", family.name},
                  {"variant", variant},
                  {"calls", family.calls},
                  {"budget", static_cast<long long>(budget)},
                  {"nodes", static_cast<long long>(nodes)},
                  {"truncated", truncated},
                  {"p50_ms", p50},
                  {"p95_ms", p95},
                  {"identical", agree}});
    }
    BISCHED_CHECK(agree, "exact B&B disagrees with the seed search on a finished instance");
  }
  t.print(std::cout);
}

// The exact B&B across cold-mix's small-uniform draws: unit jobs on a Gilbert
// G(n,n,2/n) graph, 16..32 per side, four machines of speeds 1..8, at the
// engine's node budget. The row counts the calls that ran out of budget and
// those closed at the root (the seed or the fill at the bound, no DFS node),
// and the per-call latency: the truncated calls set its tail. --quick runs
// draws 30..59, which hold two (39 and 58) that only the independent-set cut
// proves.
void exact_bb_draws_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Exact branch-and-bound across cold-mix small-uniform draws");
  t.set_header({"family", "calls", "budget", "truncated", "root-closed", "p50 ms", "p95 ms",
                "max ms"});
  const int first = quick ? 30 : 0;
  const int calls = quick ? 30 : 90;
  const std::uint64_t budget = quick ? 200'000 : 20'000'000;
  std::vector<double> ms;
  int truncated = 0;
  int root_closed = 0;
  for (int call = first; call < first + calls; ++call) {
    Rng rng(derive_seed(bench::kBenchSeed + 59, static_cast<std::uint64_t>(call)));
    const int side = 16 + static_cast<int>(rng.uniform_int(0, 16));
    std::vector<std::int64_t> speeds(4);
    for (auto& sp : speeds) sp = rng.uniform_int(1, 8);
    const auto inst = make_uniform_instance(
        std::vector<std::int64_t>(2 * static_cast<std::size_t>(side), 1), std::move(speeds),
        gilbert_bipartite(side, p_critical(2.0, side), rng));
    Timer timer;
    const ExactUniformResult r = exact_uniform_bb(inst, budget);
    ms.push_back(timer.millis());
    truncated += r.truncated ? 1 : 0;
    root_closed += r.nodes == 0 ? 1 : 0;
    // Valid, of the makespan reported, not below the lower bound, and on it
    // whenever no DFS node ran.
    BISCHED_CHECK(r.feasible && validate(inst, r.schedule) == ScheduleStatus::kValid &&
                      makespan(inst, r.schedule) == r.cmax && r.cmax >= lower_bound(inst) &&
                      (r.nodes != 0 || r.cmax == lower_bound(inst)),
                  "exact B&B returned an invalid or under-bound schedule");
  }
  const double p50 = bench::percentile(ms, 0.5);
  const double p95 = bench::percentile(ms, 0.95);
  const double max_ms = *std::max_element(ms.begin(), ms.end());
  t.add_row({"cold-mix-draws", fmt_count(calls), fmt_count(static_cast<long long>(budget)),
             fmt_count(truncated), fmt_count(root_closed), fmt_double(p50, 3),
             fmt_double(p95, 3), fmt_double(max_ms, 3)});
  report.add({{"kernel", "exact_bb"},
              {"family", "cold-mix-draws"},
              {"variant", "shipped"},
              {"calls", calls},
              {"budget", static_cast<long long>(budget)},
              {"truncated", truncated},
              {"root_closed", root_closed},
              {"p50_ms", p50},
              {"p95_ms", p95},
              {"max_ms", max_ms}});
  t.print(std::cout);
}

// The exact B&B on routed-mix's fresh crown requests: a crown with 8 jobs per
// side, p 1..10, four speed-2 machines. Every call finishes long before the
// search's first deadline poll, where the independent-set cut would engage,
// so the row pins the cost of the path that never builds it.
void exact_bb_crown_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Exact branch-and-bound on routed-mix crowns");
  t.set_header({"family", "calls", "nodes", "engaged", "p50 us", "p95 us"});
  const int calls = quick ? 200 : 2000;
  std::vector<double> us;
  std::uint64_t nodes = 0;
  int engaged = 0;
  for (int call = 0; call < calls; ++call) {
    Rng rng(derive_seed(bench::kBenchSeed + 61, static_cast<std::uint64_t>(call)));
    std::vector<std::int64_t> p(16);
    for (auto& x : p) x = rng.uniform_int(1, 10);
    const auto inst = make_uniform_instance(std::move(p), {2, 2, 2, 2}, crown(8));
    Timer timer;
    const ExactUniformResult r = exact_uniform_bb(inst, 20'000'000);
    us.push_back(timer.micros());
    nodes += r.nodes;
    engaged += r.nodes > 4096 ? 1 : 0;
    BISCHED_CHECK(r.feasible && !r.truncated &&
                      validate(inst, r.schedule) == ScheduleStatus::kValid &&
                      makespan(inst, r.schedule) == r.cmax && r.cmax >= lower_bound(inst),
                  "exact B&B returned an invalid or unproven crown schedule");
  }
  const double p50 = bench::percentile(us, 0.5);
  const double p95 = bench::percentile(us, 0.95);
  t.add_row({"routed-crown", fmt_count(calls), fmt_count(static_cast<long long>(nodes)),
             fmt_count(engaged), fmt_double(p50, 2), fmt_double(p95, 2)});
  report.add({{"kernel", "exact_bb"},
              {"family", "routed-crown"},
              {"variant", "shipped"},
              {"calls", calls},
              {"nodes", static_cast<long long>(nodes)},
              {"engaged", engaged},
              {"p50_us", p50},
              {"p95_us", p95}});
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main(int argc, char** argv) {
  using namespace bisched;
  const bool quick = bench::parse_switch(argc, argv, "quick");
  bench::banner("HOTPATHS — DP-grid, min-cut and exact B&B kernels, before vs. after",
                "One-pass window-pruned DPs and CSR Dinic at a fraction of the seed "
                "cost: exact kernels bit-identical, FPTASes within (1+eps); the "
                "pruned B&B proves the optima the seed search runs out of nodes on");
  bench::JsonReport report("hotpaths", argc, argv);
  r2_kernel_bench(report, quick);
  r2_exact_bench(report, quick);
  dinic_bench(report, quick);
  exact_bb_bench(report, quick);
  exact_bb_draws_bench(report, quick);
  exact_bb_crown_bench(report, quick);
  return report.write() ? 0 : 1;
}
