// E1 — extensions beyond the paper's pseudocode, as suggested by its
// Section 6 (open problems) and its related-work citations:
//
//   * Algorithm 2B — "better assigning the isolated jobs" (Section 6):
//     head-to-head with Algorithm 2 across p(n) regimes; the gain should
//     concentrate in the sparse regimes where most jobs are isolated.
//   * Q|G=complete bipartite, p_j=1|Cmax exact (unary encoding; cited from
//     [24], NP-hard under binary encoding by [20]): certified optima on
//     K_{a,b} and the approximation algorithms' true ratios against them.
#include <vector>

#include "bench_util.hpp"
#include "core/alg_random.hpp"
#include "core/alg_random_balanced.hpp"
#include "core/alg_sqrt.hpp"
#include "core/complete_bipartite_exact.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "sched/lower_bounds.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace bisched {
namespace {

void alg2b_table(int n, int trials) {
  TextTable t("Algorithm 2 vs Algorithm 2B (Section 6 suggestion), n = " +
              std::to_string(n));
  t.set_header({"p(n)", "Alg2/LB", "Alg2B/LB", "2B wins", "mean isolated frac"});
  struct Row {
    const char* label;
    double p;
  };
  const std::vector<Row> regimes{{"o(1/n)", p_below_critical(n)},
                                 {"a/n, a=0.5", 0.5 / n},
                                 {"a/n, a=1", 1.0 / n},
                                 {"a/n, a=2", 2.0 / n},
                                 {"log n/n", p_log_over_n(n)}};
  for (const auto& regime : regimes) {
    Welford a2r, a2br, iso;
    int wins = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + static_cast<std::uint64_t>(n),
                          static_cast<std::uint64_t>(trial) * 1009 +
                              static_cast<std::uint64_t>(regime.p * 1e7)));
      Graph g = gilbert_bipartite(n, regime.p, rng);
      const auto inst =
          make_uniform_instance(unit_weights(2 * n), {20, 9, 4, 2, 1, 1}, std::move(g));
      const double lb = lower_bound(inst).to_double();
      const auto a2 = alg2_random_bipartite(inst);
      const auto a2b = alg2_balanced(inst);
      a2r.add(a2.cmax.to_double() / lb);
      a2br.add(a2b.cmax.to_double() / lb);
      iso.add(static_cast<double>(a2b.isolated_jobs) / (2.0 * n));
      wins += a2b.cmax < a2.cmax;
    }
    t.add_row({regime.label, fmt_ratio(a2r.mean()), fmt_ratio(a2br.mean()),
               fmt_count(wins) + "/" + std::to_string(trials), fmt_ratio(iso.mean())});
  }
  t.print(std::cout);
}

void complete_bipartite_table() {
  TextTable t("Complete bipartite K_{a,b}: algorithms vs the exact optimum ([24])");
  t.set_header({"a", "b", "speeds", "OPT", "Alg1/OPT", "Alg2/OPT", "exact ms"});
  struct Config {
    int a, b;
    const char* label;
    std::vector<std::int64_t> speeds;
  };
  const std::vector<Config> configs{
      {100, 100, "flat (6x3)", std::vector<std::int64_t>(6, 3)},
      {100, 100, "one-fast", {50, 2, 2, 2, 2, 2}},
      {300, 60, "flat (6x3)", std::vector<std::int64_t>(6, 3)},
      {300, 60, "one-fast", {50, 2, 2, 2, 2, 2}},
      {1000, 1000, "geometric", {64, 32, 16, 8, 4, 2}},
  };
  for (const auto& config : configs) {
    const auto inst = make_uniform_instance(unit_weights(config.a + config.b),
                                            config.speeds,
                                            complete_bipartite(config.a, config.b));
    Timer timer;
    const auto exact = solve_complete_bipartite_instance(inst);
    const double exact_ms = timer.millis();
    const auto a1 = alg1_sqrt_approx(inst);
    const auto a2 = alg2_random_bipartite(inst);
    t.add_row({fmt_count(config.a), fmt_count(config.b), config.label,
               exact.cmax.to_string(),
               fmt_ratio(a1.cmax.to_double() / exact.cmax.to_double()),
               fmt_ratio(a2.cmax.to_double() / exact.cmax.to_double()),
               fmt_double(exact_ms, 2)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main() {
  bisched::bench::banner(
      "E1 — extensions: Algorithm 2B, complete-bipartite exact",
      "Section-6 future work + cited special cases, quantified");
  bisched::alg2b_table(200, 10);
  bisched::alg2b_table(1000, 6);
  bisched::complete_bipartite_table();
  return 0;
}
