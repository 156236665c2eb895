#include "core/q2_unit_exact.hpp"

#include <gtest/gtest.h>

#include "core/exact_bb.hpp"
#include "random/generators.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

UniformInstance unit_q2(Graph g, std::int64_t s1, std::int64_t s2) {
  const int n = g.num_vertices();
  return make_uniform_instance(std::vector<std::int64_t>(static_cast<std::size_t>(n), 1),
                               {s1, s2}, std::move(g));
}

TEST(Q2Exact, CompleteBipartiteSplitsAreSides) {
  const auto inst = unit_q2(complete_bipartite(3, 5), 1, 1);
  const auto splits = q2_achievable_splits(inst);
  // Single component: only 3 or 5 jobs can sit on M1.
  for (int n1 = 0; n1 <= 8; ++n1) {
    EXPECT_EQ(splits[static_cast<std::size_t>(n1)] != 0, n1 == 3 || n1 == 5) << n1;
  }
  const auto r = q2_unit_exact_dp(inst);
  EXPECT_EQ(r.cmax, Rational(5));  // best: 5 on one machine, 3 on the other
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
}

TEST(Q2Exact, SpeedsBreakSymmetry) {
  // K_{3,5} on speeds (5, 1): put the 5-side on the fast machine: max(1, 3).
  const auto inst = unit_q2(complete_bipartite(3, 5), 5, 1);
  const auto r = q2_unit_exact_dp(inst);
  EXPECT_EQ(r.jobs_on_m1, 5);
  EXPECT_EQ(r.cmax, Rational(3));
}

TEST(Q2Exact, IsolatedVerticesGiveAllSplits) {
  const auto inst = unit_q2(Graph(4), 1, 1);
  const auto splits = q2_achievable_splits(inst);
  for (int n1 = 0; n1 <= 4; ++n1) EXPECT_TRUE(splits[static_cast<std::size_t>(n1)]);
  EXPECT_EQ(q2_unit_exact_dp(inst).cmax, Rational(2));
}

TEST(Q2Exact, EmptyInstance) {
  const auto inst = unit_q2(Graph(0), 2, 1);
  EXPECT_EQ(q2_unit_exact_dp(inst).cmax, Rational(0));
  EXPECT_EQ(q2_unit_exact_via_fptas(inst).value().cmax, Rational(0));
}

TEST(Q2Exact, DpMatchesBranchAndBound) {
  Rng rng(404);
  for (int iter = 0; iter < 40; ++iter) {
    const int a = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const int b = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const std::int64_t max_m = static_cast<std::int64_t>(a) * b;
    Graph g = random_bipartite_edges(a, b, rng.uniform_int(0, max_m), rng);
    const auto inst = unit_q2(std::move(g), rng.uniform_int(1, 4), rng.uniform_int(1, 4));
    const auto dp = q2_unit_exact_dp(inst);
    const auto bb = exact_uniform_bb(inst);
    ASSERT_TRUE(bb.feasible);
    EXPECT_EQ(dp.cmax, bb.cmax);
    EXPECT_EQ(validate(inst, dp.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(makespan(inst, dp.schedule), dp.cmax);
  }
}

// The paper's Theorem 4 route (FPTAS per split) agrees with the direct DP.
TEST(Q2Exact, FptasRouteMatchesDp) {
  Rng rng(505);
  for (int iter = 0; iter < 25; ++iter) {
    const int a = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const int b = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const std::int64_t max_m = static_cast<std::int64_t>(a) * b;
    Graph g = random_bipartite_edges(a, b, rng.uniform_int(0, max_m), rng);
    const auto inst = unit_q2(std::move(g), rng.uniform_int(1, 5), rng.uniform_int(1, 5));
    const auto dp = q2_unit_exact_dp(inst);
    const auto via = q2_unit_exact_via_fptas(inst).value();
    EXPECT_EQ(dp.cmax, via.cmax);
    EXPECT_EQ(validate(inst, via.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(makespan(inst, via.schedule), via.cmax);
  }
}

TEST(Q2Exact, PathGraphSplits) {
  // Path on 4 vertices: one component, sides {0,2} and {1,3} -> n1 in {2}.
  const auto inst = unit_q2(path_graph(4), 1, 1);
  const auto splits = q2_achievable_splits(inst);
  EXPECT_FALSE(splits[0]);
  EXPECT_FALSE(splits[1]);
  EXPECT_TRUE(splits[2]);
  EXPECT_FALSE(splits[3]);
  EXPECT_FALSE(splits[4]);
}

TEST(Q2ExactDeath, RejectsNonUnitJobs) {
  const auto inst = make_uniform_instance({2, 1}, {1, 1}, Graph(2));
  EXPECT_DEATH(q2_unit_exact_dp(inst), "unit jobs");
}

TEST(Q2ExactDeath, RejectsThreeMachines) {
  const auto inst = make_uniform_instance({1}, {1, 1, 1}, Graph(1));
  EXPECT_DEATH(q2_unit_exact_dp(inst), "two machines");
}

}  // namespace
}  // namespace bisched
