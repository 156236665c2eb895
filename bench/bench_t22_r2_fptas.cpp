// T22 — Theorem 22 / Algorithm 5: the FPTAS for R2|G=bipartite|Cmax.
//
// Two series: (a) realized ratio vs exact optimum across eps — must sit below
// 1 + eps and approach 1; (b) runtime growth as eps shrinks — the paper's
// O(n/eps) shape (our substrate FPTAS is O(n^2/eps log sum p), see DESIGN.md).
#include <vector>

#include "bench_util.hpp"
#include "core/r2_algorithms.hpp"
#include "random/generators.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace bisched {
namespace {

UnrelatedInstance build(int n_half, std::int64_t tmax, Rng& rng) {
  // Sparse graphs: many connected components, hence many genuine decision
  // jobs after the Algorithm-3 reduction (dense graphs collapse to one
  // component and make the FPTAS trivially exact).
  Graph g = random_bipartite_edges(n_half, n_half, n_half / 2, rng);
  std::vector<std::vector<std::int64_t>> times(2,
                                               std::vector<std::int64_t>(2 * n_half));
  for (auto& row : times) {
    for (auto& x : row) x = rng.uniform_int(1, tmax);
  }
  return make_unrelated_instance(std::move(times), std::move(g));
}

void eps_sweep_table(int n_half, int trials) {
  TextTable t("Algorithm 5 vs exact, n = " + std::to_string(2 * n_half) + " (" +
              std::to_string(trials) + " trials)");
  t.set_header({"eps", "mean ratio", "max ratio", "1+eps", "guarantee held", "mean ms"});
  for (double eps : {1.0, 0.5, 0.2, 0.1, 0.05, 0.02}) {
    Welford ratio;
    bool held = true;
    double ms = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + static_cast<std::uint64_t>(n_half),
                          static_cast<std::uint64_t>(trial) * 31 +
                              static_cast<std::uint64_t>(eps * 1000)));
      const auto inst = build(n_half, 40, rng);
      Timer timer;
      const auto approx = r2_fptas_bipartite(inst, eps).value();
      ms += timer.millis();
      const auto exact = r2_exact_bipartite(inst);
      const double r =
          exact.cmax == 0 ? 1.0 : static_cast<double>(approx.cmax) / exact.cmax;
      ratio.add(r);
      held = held && static_cast<double>(approx.cmax) <=
                         (1.0 + eps) * static_cast<double>(exact.cmax) + 1e-9;
    }
    t.add_row({fmt_double(eps, 2), fmt_ratio(ratio.mean()), fmt_ratio(ratio.max()),
               fmt_double(1.0 + eps, 2), fmt_bool(held), fmt_double(ms / trials, 2)});
  }
  t.print(std::cout);
}

void runtime_growth_table() {
  TextTable t("Runtime vs n at fixed eps = 0.1");
  t.set_header({"n", "components", "ms"});
  for (int n_half : {50, 100, 200, 400, 800}) {
    Rng rng(derive_seed(bench::kBenchSeed + 99, static_cast<std::uint64_t>(n_half)));
    const auto inst = build(n_half, 40, rng);
    Timer timer;
    const auto approx = r2_fptas_bipartite(inst, 0.1).value();
    (void)approx;
    const auto red = reduce_r2_bipartite(inst);
    t.add_row({fmt_count(2 * n_half), fmt_count(static_cast<long long>(red.components.size())),
               fmt_double(timer.millis(), 2)});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main() {
  bisched::bench::banner("T22 — Algorithm 5, FPTAS for R2|G=bipartite|Cmax (Theorem 22)",
                         "ratio <= 1 + eps for every eps; runtime polynomial in n, 1/eps");
  bisched::eps_sweep_table(25, 8);
  bisched::eps_sweep_table(100, 5);
  bisched::runtime_growth_table();
  return 0;
}
