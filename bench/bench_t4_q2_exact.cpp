// T4 — Theorem 4: exact polynomial algorithm for Q2|G=bipartite,p_j=1|Cmax.
//
// Reproduces the theorem as two measurements:
//   * agreement — the direct split DP and the paper's FPTAS-per-split route
//     return identical optima on shared random inputs;
//   * runtime scaling — the paper's route is O(n) FPTAS calls (O(n^3)-ish);
//     the split DP scales to tens of thousands of jobs.
#include <vector>

#include "bench_util.hpp"
#include "core/q2_general.hpp"
#include "core/q2_unit_exact.hpp"
#include "graph/bipartite.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

UniformInstance instance_for(int n_half, double a, std::int64_t s1, std::int64_t s2,
                             Rng& rng) {
  Graph g = gilbert_bipartite(n_half, a / n_half, rng);
  return make_uniform_instance(unit_weights(2 * n_half), {s1, s2}, std::move(g));
}

void agreement_table() {
  TextTable t("DP vs paper's FPTAS-route: agreement and runtime (G(n/2,n/2,2/(n/2)))");
  t.set_header({"n", "components", "Cmax (DP)", "Cmax (FPTAS route)", "agree", "dp ms",
                "fptas-route ms"});
  Rng rng(bench::kBenchSeed);
  for (int n_half : {8, 16, 32, 48, 64}) {
    const auto inst = instance_for(n_half, 2.0, 3, 2, rng);
    Timer t1;
    const auto dp = q2_unit_exact_dp(inst);
    const double dp_ms = t1.millis();
    Timer t2;
    const auto via = q2_unit_exact_via_fptas(inst).value();
    const double via_ms = t2.millis();
    // Count components for the record.
    const auto bp = bipartition(inst.conflicts);
    t.add_row({fmt_count(2 * n_half), fmt_count(bp ? bp->num_components : -1),
               dp.cmax.to_string(), via.cmax.to_string(), fmt_bool(dp.cmax == via.cmax),
               fmt_double(dp_ms, 2), fmt_double(via_ms, 2)});
  }
  t.print(std::cout);
}

void scaling_table() {
  TextTable t("Split-DP scaling (the practical Theorem-4 solver)");
  t.set_header({"n", "Cmax", "jobs on M1", "ms"});
  Rng rng(bench::kBenchSeed + 1);
  for (int n_half : {256, 1024, 4096, 16384, 65536}) {
    const auto inst = instance_for(n_half, 2.0, 5, 3, rng);
    Timer timer;
    const auto dp = q2_unit_exact_dp(inst);
    t.add_row({fmt_count(2 * n_half), dp.cmax.to_string(), fmt_count(dp.jobs_on_m1),
               fmt_double(timer.millis(), 2)});
  }
  t.print(std::cout);
}

void structured_table() {
  TextTable t("Known-structure sanity rows");
  t.set_header({"instance", "speeds", "Cmax", "jobs on M1"});
  {
    const auto inst = make_uniform_instance(unit_weights(8), {1, 1}, complete_bipartite(3, 5));
    const auto dp = q2_unit_exact_dp(inst);
    t.add_row({"K_{3,5}", "(1,1)", dp.cmax.to_string(), fmt_count(dp.jobs_on_m1)});
  }
  {
    const auto inst = make_uniform_instance(unit_weights(8), {5, 1}, complete_bipartite(3, 5));
    const auto dp = q2_unit_exact_dp(inst);
    t.add_row({"K_{3,5}", "(5,1)", dp.cmax.to_string(), fmt_count(dp.jobs_on_m1)});
  }
  {
    const auto inst = make_uniform_instance(unit_weights(12), {2, 1}, crown(6));
    const auto dp = q2_unit_exact_dp(inst);
    t.add_row({"crown(6)", "(2,1)", dp.cmax.to_string(), fmt_count(dp.jobs_on_m1)});
  }
  t.print(std::cout);
}

void weighted_companion_table() {
  TextTable t("Beyond Theorem 4: arbitrary p_j on two machines (extension)");
  t.set_header({"n", "sum p", "Cmax (weighted DP)", "Cmax (via R2 DP)", "agree",
                "FPTAS eps=.05 ratio", "dp ms"});
  Rng rng(bench::kBenchSeed + 2);
  for (int n_half : {20, 60, 150}) {
    Graph g = gilbert_bipartite(n_half, 2.0 / n_half, rng);
    auto p = uniform_weights(2 * n_half, 1, 30, rng);
    const auto inst = make_uniform_instance(std::move(p), {5, 3}, std::move(g));
    Timer timer;
    const auto dp = q2_weighted_exact_dp(inst);
    const double dp_ms = timer.millis();
    const auto via = q2_exact_via_r2(inst);
    const auto fpt = q2_fptas(inst, 0.05).value();
    t.add_row({fmt_count(2 * n_half), fmt_count(inst.total_work()), dp.cmax.to_string(),
               via.cmax.to_string(), fmt_bool(dp.cmax == via.cmax),
               fmt_ratio(fpt.cmax.to_double() / dp.cmax.to_double()),
               fmt_double(dp_ms, 2)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main() {
  bisched::bench::banner("T4 — exact Q2|G=bipartite,p_j=1|Cmax (Theorem 4)",
                         "both exact routes agree; split DP scales far beyond the FPTAS route");
  bisched::agreement_table();
  bisched::scaling_table();
  bisched::structured_table();
  bisched::weighted_companion_table();
  return 0;
}
