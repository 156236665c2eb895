// Robustness: degenerate instances through every code path, and failure
// injection — deliberately corrupted schedules must be rejected by
// validation, establishing that `validate` (which every algorithm's output
// is checked against) actually discriminates.
#include <gtest/gtest.h>

#include "core/alg_random.hpp"
#include "core/alg_random_balanced.hpp"
#include "core/alg_sqrt.hpp"
#include "core/baselines.hpp"
#include "core/exact_bb.hpp"
#include "core/q2_unit_exact.hpp"
#include "core/r2_algorithms.hpp"
#include "random/generators.hpp"
#include "sched/lower_bounds.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

// ---- degenerate instances ---------------------------------------------------

TEST(Robustness, SingleJobAllAlgorithms) {
  const auto inst = make_uniform_instance({5}, {3, 1}, Graph(1));
  EXPECT_EQ(alg1_sqrt_approx(inst).cmax, Rational(5, 3));
  EXPECT_EQ(alg2_random_bipartite(inst).cmax, Rational(5, 3));
  EXPECT_EQ(alg2_balanced(inst).cmax, Rational(5, 3));
  const auto exact = exact_uniform_bb(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(exact.cmax, Rational(5, 3));
}

TEST(Robustness, EmptyJobSetUniform) {
  const auto inst = make_uniform_instance({}, {2, 1}, Graph(0));
  EXPECT_EQ(alg2_random_bipartite(inst).cmax, Rational(0));
  EXPECT_EQ(alg2_balanced(inst).cmax, Rational(0));
  const auto exact = exact_uniform_bb(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(exact.cmax, Rational(0));
}

TEST(Robustness, EmptyJobSetUnrelated) {
  const auto inst = make_unrelated_instance({{}, {}}, Graph(0));
  EXPECT_EQ(r2_two_approx(inst).cmax, 0);
  EXPECT_EQ(r2_fptas_bipartite(inst, 0.5).value().cmax, 0);
  EXPECT_EQ(r2_exact_bipartite(inst).cmax, 0);
}

TEST(Robustness, StarGraphHub) {
  // Hub conflicts with everyone: the hub must sit alone against the leaves.
  const int leaves = 12;
  Graph g = complete_bipartite(1, leaves);
  const auto inst =
      make_uniform_instance(unit_weights(1 + leaves), {4, 2, 1}, std::move(g));
  for (const auto& result :
       {alg1_sqrt_approx(inst).schedule, alg2_random_bipartite(inst).schedule,
        alg2_balanced(inst).schedule}) {
    ASSERT_EQ(validate(inst, result), ScheduleStatus::kValid);
    const int hub_machine = result.machine_of[0];
    for (int leaf = 1; leaf <= leaves; ++leaf) {
      EXPECT_NE(result.machine_of[static_cast<std::size_t>(leaf)], hub_machine);
    }
  }
}

TEST(Robustness, ManyMoreMachinesThanJobs) {
  Rng rng(9);
  const auto inst = testing::random_uniform_instance(2, 2, 12, 5, 3, rng);
  const auto r = alg1_sqrt_approx(inst);
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
  const auto exact = exact_uniform_bb(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_TRUE(exact.cmax <= r.cmax);
}

TEST(Robustness, MaximallyDenseBipartiteGraph) {
  // K_{6,6}: any machine holds jobs of one side only.
  const auto inst =
      make_uniform_instance(unit_weights(12), {3, 2, 2, 1}, complete_bipartite(6, 6));
  for (const auto& schedule :
       {alg1_sqrt_approx(inst).schedule, alg2_random_bipartite(inst).schedule}) {
    ASSERT_EQ(validate(inst, schedule), ScheduleStatus::kValid);
    for (int u = 0; u < 6; ++u) {
      for (int v = 6; v < 12; ++v) {
        EXPECT_NE(schedule.machine_of[static_cast<std::size_t>(u)],
                  schedule.machine_of[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST(Robustness, IdenticalSpeedsEverywhere) {
  Rng rng(10);
  const auto inst = testing::random_uniform_instance(5, 5, 4, 7, 1, rng);
  for (std::int64_t s : inst.speeds) EXPECT_EQ(s, 1);
  const auto r = alg1_sqrt_approx(inst);
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
}

TEST(Robustness, HugeSpeedGap) {
  // One machine a million times faster: everything compatible should pile on.
  Graph g(4);
  g.add_edge(0, 1);
  const auto inst = make_uniform_instance({3, 4, 5, 6}, {1000000, 1, 1}, std::move(g));
  const auto r = alg1_sqrt_approx(inst);
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
  const auto exact = exact_uniform_bb(inst);
  ASSERT_TRUE(exact.feasible);
  // OPT: jobs {1,2,3} (sum 15... job 0 conflicts job 1 only) — at least one
  // job leaves the fast machine; makespan >= 3/1 on a slow machine or tiny on
  // fast. Exact: put 0 on a slow machine (3), rest on fast (15/1e6).
  EXPECT_EQ(exact.cmax, Rational(3));
  testing::expect_le_sqrt_times(r.cmax, inst.total_work(), exact.cmax, "huge gap");
}

// ---- failure injection -------------------------------------------------------

TEST(FailureInjection, CorruptedSchedulesAreRejected) {
  Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = testing::random_uniform_instance(4, 4, 3, 6, 3, rng);
    if (inst.conflicts.num_edges() == 0) continue;
    auto r = alg2_random_bipartite(inst);
    ASSERT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);

    // Force both endpoints of some edge onto the same machine.
    int u = -1, v = -1;
    for (int cand = 0; cand < inst.num_jobs() && u == -1; ++cand) {
      if (inst.conflicts.degree(cand) > 0) {
        u = cand;
        v = inst.conflicts.neighbors(cand)[0];
      }
    }
    ASSERT_NE(u, -1);
    Schedule corrupted = r.schedule;
    corrupted.machine_of[static_cast<std::size_t>(v)] =
        corrupted.machine_of[static_cast<std::size_t>(u)];
    EXPECT_EQ(validate(inst, corrupted), ScheduleStatus::kConflictViolated);
  }
}

TEST(FailureInjection, TruncatedScheduleRejected) {
  Rng rng(12);
  const auto inst = testing::random_uniform_instance(3, 3, 2, 5, 2, rng);
  auto r = alg2_random_bipartite(inst);
  r.schedule.machine_of.pop_back();
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kWrongJobCount);
}

TEST(FailureInjection, OutOfRangeMachineRejected) {
  Rng rng(13);
  const auto inst = testing::random_uniform_instance(3, 3, 2, 5, 2, rng);
  auto r = alg2_random_bipartite(inst);
  r.schedule.machine_of[0] = inst.num_machines();
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kMachineOutOfRange);
}

TEST(FailureInjection, PerturbedOptimalScheduleNeverImproves) {
  // Local perturbations of the exact optimum can only keep or worsen the
  // makespan (or break validity) — a sanity property of optimality.
  Rng rng(14);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = testing::random_uniform_instance(3, 3, 3, 6, 3, rng);
    const auto exact = exact_uniform_bb(inst);
    ASSERT_TRUE(exact.feasible);
    for (int move = 0; move < 10; ++move) {
      Schedule perturbed = exact.schedule;
      const auto job = static_cast<std::size_t>(rng.uniform_int(0, inst.num_jobs() - 1));
      perturbed.machine_of[job] =
          static_cast<int>(rng.uniform_int(0, inst.num_machines() - 1));
      if (validate(inst, perturbed) != ScheduleStatus::kValid) continue;
      EXPECT_TRUE(exact.cmax <= makespan(inst, perturbed));
    }
  }
}

// ---- cross-checks of the certified lower bound -------------------------------

TEST(Robustness, LowerBoundNeverExceedsAnyAlgorithm) {
  Rng rng(15);
  for (int iter = 0; iter < 25; ++iter) {
    const auto inst = testing::random_uniform_instance(
        3 + static_cast<int>(rng.uniform_int(0, 5)), 3 + static_cast<int>(rng.uniform_int(0, 5)),
        2 + static_cast<int>(rng.uniform_int(0, 4)), 9, 5, rng);
    const Rational lb = lower_bound(inst);
    EXPECT_TRUE(lb <= alg1_sqrt_approx(inst).cmax);
    EXPECT_TRUE(lb <= alg2_random_bipartite(inst).cmax);
    EXPECT_TRUE(lb <= alg2_balanced(inst).cmax);
    EXPECT_TRUE(lb <= two_color_split(inst).cmax);
    EXPECT_TRUE(lb <= class_proportional_split(inst).cmax);
  }
}

TEST(Robustness, UnitJobsQ2AllSolversAgreeOnDegenerateGraphs) {
  // Graph families with extreme component structure.
  for (const Graph& g : {Graph(8), complete_bipartite(4, 4), crown(4), path_graph(8)}) {
    const auto inst = make_uniform_instance(unit_weights(8), {3, 2}, Graph(g));
    const auto dp = q2_unit_exact_dp(inst);
    const auto bb = exact_uniform_bb(inst);
    ASSERT_TRUE(bb.feasible);
    EXPECT_EQ(dp.cmax, bb.cmax);
  }
}

}  // namespace
}  // namespace bisched
