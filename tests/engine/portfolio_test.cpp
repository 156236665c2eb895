#include "engine/portfolio.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "core/exact_bb.hpp"
#include "core/r2_algorithms.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/schedule.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace bisched {
namespace {

using engine::SolveOptions;
using engine::SolverRegistry;

TEST(Portfolio, AutoMatchesExactOracleOnSmallUniformInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = testing::random_uniform_instance(4, 4, 3, 6, 4, rng);
    const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(makespan(inst, result.schedule), result.cmax);
    // n = 8 <= 64: an exact solver is applicable, so auto must be optimal.
    const auto oracle = exact_uniform_bb(inst);
    ASSERT_TRUE(oracle.feasible);
    EXPECT_EQ(result.cmax, oracle.cmax);
  }
}

TEST(Portfolio, AutoPicksAlg1WhenExactSolversAreOutOfReach) {
  Rng rng(12);
  // 100 jobs on 3 machines: beyond the B&B cap, not Q2, not unit-complete-
  // bipartite — the strongest remaining guarantee is Algorithm 1's sqrt.
  const auto inst = testing::random_uniform_instance(50, 50, 3, 5, 4, rng);
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.solver, "alg1");
  EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
}

TEST(Portfolio, AutoSolvesR2ExactlyWithinDpBudget) {
  Rng rng(13);
  const auto inst = testing::random_r2_instance(15, 15, 20, rng);
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.solver, "r2exact");
  EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
  const auto oracle = r2_exact_bipartite(inst);
  EXPECT_EQ(result.cmax, Rational(oracle.cmax));
}

TEST(Portfolio, RunAllNeverLosesToAnySingleSolver) {
  Rng rng(14);
  const auto inst = testing::random_r2_instance(10, 10, 15, rng);
  SolveOptions run_all;
  run_all.run_all = true;
  const auto best = engine::solve_auto(SolverRegistry::builtin(), inst, run_all);
  ASSERT_TRUE(best.ok) << best.error;
  EXPECT_GE(best.solvers_tried, 2);
  const auto two_approx =
      engine::solve_named(SolverRegistry::builtin(), "alg4", inst, {});
  ASSERT_TRUE(two_approx.ok);
  EXPECT_TRUE(best.cmax <= two_approx.cmax);
}

TEST(Portfolio, NamedSolverChecksApplicabilityInsteadOfAborting) {
  Rng rng(15);
  const auto r2 = testing::random_r2_instance(5, 5, 10, rng);
  const auto wrong_model =
      engine::solve_named(SolverRegistry::builtin(), "alg1", r2, {});
  EXPECT_FALSE(wrong_model.ok);
  EXPECT_NE(wrong_model.error.find("not applicable"), std::string::npos);

  const auto unknown = engine::solve_named(SolverRegistry::builtin(), "nope", r2, {});
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown solver"), std::string::npos);

  const auto uniform = testing::random_uniform_instance(3, 3, 3, 4, 3, rng);
  const auto q2_on_q3 =
      engine::solve_named(SolverRegistry::builtin(), "q2exact", uniform, {});
  EXPECT_FALSE(q2_on_q3.ok);

  SolveOptions bad_eps;
  bad_eps.eps = 0;
  const auto eps = engine::solve_named(SolverRegistry::builtin(), "alg5", r2, bad_eps);
  EXPECT_FALSE(eps.ok);
  EXPECT_NE(eps.error.find("eps"), std::string::npos);
}

TEST(Portfolio, OversizedFptasTableFallsThroughInsteadOfAborting) {
  Rng rng(19);
  // alg5's one DP pass would pass the R2 table guard: a clean failure, and
  // auto (r2exact already declined by its admits bound) lands on alg4.
  const auto r2 = testing::oversized_fptas_r2_instance(rng);
  const auto alg5 = engine::solve_named(SolverRegistry::builtin(), "alg5", r2, {});
  EXPECT_FALSE(alg5.ok);
  EXPECT_NE(alg5.error.find("table too large"), std::string::npos) << alg5.error;
  const auto r2_auto = engine::solve_auto(SolverRegistry::builtin(), r2, {});
  ASSERT_TRUE(r2_auto.ok) << r2_auto.error;
  EXPECT_EQ(r2_auto.solver, "alg4");
  EXPECT_EQ(validate(r2, r2_auto.schedule), ScheduleStatus::kValid);

  // alg1's S1 takes Algorithm 4's schedule when the FPTAS table does not fit.
  const auto uniform = testing::oversized_fptas_uniform_instance(rng);
  const auto alg1 = engine::solve_auto(SolverRegistry::builtin(), uniform, {});
  ASSERT_TRUE(alg1.ok) << alg1.error;
  EXPECT_EQ(alg1.solver, "alg1");
  EXPECT_EQ(validate(uniform, alg1.schedule), ScheduleStatus::kValid);

  // q2fptas on the two fastest of those machines fails the same way.
  const UniformInstance q2 =
      make_uniform_instance(uniform.p, {4, 3}, Graph(uniform.num_jobs()));
  const auto q2fptas = engine::solve_named(SolverRegistry::builtin(), "q2fptas", q2, {});
  EXPECT_FALSE(q2fptas.ok);
  EXPECT_NE(q2fptas.error.find("table too large"), std::string::npos) << q2fptas.error;
}

TEST(Portfolio, InfeasibleInstanceReportsFailureNotAbort) {
  Graph edge(2);
  edge.add_edge(0, 1);
  const auto inst = make_uniform_instance({1, 1}, {1}, std::move(edge));
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(Portfolio, ExpiredDeadlineFailsFastInsteadOfStartingTheSolver) {
  Rng rng(16);
  const auto inst = testing::random_uniform_instance(6, 6, 3, 5, 3, rng);
  SolveOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto result = engine::solve_named(SolverRegistry::builtin(), "exact", inst, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("deadline"), std::string::npos);
}

// A path on 31 jobs, every p = 2, on 3 equal machines. Every load is even,
// so the optimum (22: eleven jobs on one machine) sits above the cover-all
// root bound (21), and no bound the search uses sees the parity: proving it
// takes 123 815 061 nodes at an unlimited budget (~2 s in a Release build),
// beyond the engine's 20M-node budget.
UniformInstance even_path_instance() {
  constexpr int kJobs = 31;
  Graph path(kJobs);
  for (int v = 0; v + 1 < kJobs; ++v) path.add_edge(v, v + 1);
  return make_uniform_instance(std::vector<std::int64_t>(kJobs, 2), {1, 1, 1}, std::move(path));
}

TEST(Portfolio, DeadlineBindsInsideTheBranchAndBound) {
  const auto inst = even_path_instance();
  ASSERT_LT(lower_bound(inst), Rational(22));  // the root bound cannot close it
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  const auto result = exact_uniform_bb(inst, 0, deadline);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - deadline);
  // Well under the seconds the full search needs (generous bound: CI noise).
  EXPECT_LT(elapsed.count(), 2000);
  // Stopped unproven, and the seeded incumbent survives the deadline.
  EXPECT_TRUE(result.truncated);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
}

TEST(Portfolio, BudgetTruncatedBranchAndBoundFallsThroughToAlg1) {
  const auto inst = even_path_instance();
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.solver, "alg1");
  EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
}

TEST(Portfolio, ExactProvesSmallUnitGilbertInstancesOnFourMachines) {
  // The perfbench cold-mix small-uniform shape: 32-64 unit jobs on a Gilbert
  // G(n,n,2/n) bipartite graph, 4 machines of speeds 1..8. The portfolio
  // tries the B&B first; on these 150 draws every proof it finishes meets
  // the root lower bound. The fill at that bound and the independent-set cut
  // prove all of them (without the cut, draws 92 and 106 run the DFS out of
  // its budget); an unfinished search would hand the request to alg1.
  int proven = 0;
  for (std::uint64_t k = 0; k < 150; ++k) {
    Rng rng(derive_seed(2, k));
    const int side = 16 + static_cast<int>(rng.uniform_int(0, 16));
    std::vector<std::int64_t> speeds(4);
    for (auto& s : speeds) s = rng.uniform_int(1, 8);
    const auto inst = make_uniform_instance(
        std::vector<std::int64_t>(2 * static_cast<std::size_t>(side), 1), std::move(speeds),
        gilbert_bipartite(side, p_critical(2.0, side), rng));
    const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(makespan(inst, result.schedule), result.cmax);
    if (result.solver == "exact") {
      ++proven;
      EXPECT_EQ(result.cmax, lower_bound(inst)) << "draw " << k;
    } else {
      EXPECT_EQ(result.solver, "alg1") << "draw " << k;
    }
  }
  EXPECT_EQ(proven, 150);
}

TEST(Portfolio, RunAllBudgetDerivesPerSolverDeadlines) {
  // On a conflict-free instance every uniform solver is applicable; with a
  // near-zero budget the first solver starts (contract) but its deadline is
  // already spent, so the whole run returns quickly either way.
  const auto inst =
      make_uniform_instance(std::vector<std::int64_t>(48, 1), {2, 1, 1}, Graph(48));
  SolveOptions options;
  options.run_all = true;
  options.budget_ms = 20;
  Timer timer;
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, options);
  EXPECT_LT(timer.millis(), 5000.0);
  // The strongest eligible solver is the deadline-aware B&B; whether it
  // finished or aborted, the budget must not have been ignored.
  if (result.ok) {
    EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
  } else {
    EXPECT_NE(result.error.find("failed"), std::string::npos);
  }
}

TEST(Portfolio, UnitCompleteBipartiteRoutesToPolynomialExactSolver) {
  // K_{8,12} with unit jobs on 4 machines: both kab and the B&B oracle are
  // applicable exact solvers, but kab (polynomial, cannot fail) must win the
  // tie against the may_fail branch-and-bound.
  const auto inst = make_uniform_instance(std::vector<std::int64_t>(20, 1), {3, 2, 2, 1},
                                          complete_bipartite(8, 12));
  const auto result = engine::solve_auto(SolverRegistry::builtin(), inst, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.solver, "kab");
  EXPECT_EQ(validate(inst, result.schedule), ScheduleStatus::kValid);
  const auto oracle = exact_uniform_bb(inst);
  ASSERT_TRUE(oracle.feasible);
  EXPECT_EQ(result.cmax, oracle.cmax);
}

}  // namespace
}  // namespace bisched
