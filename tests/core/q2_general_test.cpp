#include "core/q2_general.hpp"

#include <gtest/gtest.h>

#include "core/exact_bb.hpp"
#include "core/q2_unit_exact.hpp"
#include "random/generators.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

TEST(Q2General, AchievableLoadsOnSingleEdge) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_uniform_instance({3, 5}, {2, 1}, std::move(g));
  const auto loads = q2_achievable_loads(inst);
  // One component with side weights {3, 5}: machine 1 gets 3 or 5.
  for (std::int64_t x = 0; x <= 8; ++x) {
    EXPECT_EQ(loads[static_cast<std::size_t>(x)] != 0, x == 3 || x == 5) << x;
  }
}

TEST(Q2General, WeightedDpKnownOptimum) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_uniform_instance({3, 5}, {2, 1}, std::move(g));
  // Options: load1=5 -> max(5/2, 3) = 3; load1=3 -> max(3/2, 5) = 5. Best 3...
  // wait: load1=5: M2 gets 3 at speed 1 -> 3; load1=3: M2 gets 5 -> 5.
  const auto r = q2_weighted_exact_dp(inst);
  EXPECT_EQ(r.cmax, Rational(3));
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
}

TEST(Q2General, AllThreeSolversAgreeWithBranchAndBound) {
  Rng rng(2024);
  for (int iter = 0; iter < 30; ++iter) {
    const auto inst = testing::random_uniform_instance(
        1 + static_cast<int>(rng.uniform_int(0, 4)), 1 + static_cast<int>(rng.uniform_int(0, 4)),
        2, 8, 5, rng);
    const auto bb = exact_uniform_bb(inst);
    ASSERT_TRUE(bb.feasible);
    const auto dp = q2_weighted_exact_dp(inst);
    EXPECT_EQ(dp.cmax, bb.cmax);
    const auto via_r2 = q2_exact_via_r2(inst);
    EXPECT_EQ(via_r2.cmax, bb.cmax);
    EXPECT_EQ(validate(inst, dp.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(validate(inst, via_r2.schedule), ScheduleStatus::kValid);
  }
}

class Q2FptasEps : public ::testing::TestWithParam<double> {};

TEST_P(Q2FptasEps, WithinGuarantee) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 131) + 5);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = testing::random_uniform_instance(
        2 + static_cast<int>(rng.uniform_int(0, 4)), 2 + static_cast<int>(rng.uniform_int(0, 4)),
        2, 9, 4, rng);
    const auto approx = q2_fptas(inst, eps).value();
    EXPECT_EQ(validate(inst, approx.schedule), ScheduleStatus::kValid);
    const auto exact = q2_weighted_exact_dp(inst);
    EXPECT_TRUE(exact.cmax <= approx.cmax);
    EXPECT_LE(approx.cmax.to_double(), (1.0 + eps) * exact.cmax.to_double() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, Q2FptasEps, ::testing::Values(1.0, 0.25, 0.05));

TEST(Q2General, UnitJobsReduceToTheorem4) {
  Rng rng(31);
  for (int iter = 0; iter < 15; ++iter) {
    const int a = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const int b = 1 + static_cast<int>(rng.uniform_int(0, 5));
    Graph g = random_bipartite_edges(a, b, rng.uniform_int(0, static_cast<std::int64_t>(a) * b),
                                     rng);
    const auto inst = make_uniform_instance(unit_weights(a + b),
                                            {rng.uniform_int(1, 4), rng.uniform_int(1, 4)},
                                            std::move(g));
    EXPECT_EQ(q2_weighted_exact_dp(inst).cmax, q2_unit_exact_dp(inst).cmax);
  }
}

TEST(Q2General, LargerPseudoPolynomialInstances) {
  Rng rng(32);
  const auto inst = testing::random_uniform_instance(60, 60, 2, 50, 6, rng);
  const auto dp = q2_weighted_exact_dp(inst);
  const auto via_r2 = q2_exact_via_r2(inst);
  EXPECT_EQ(dp.cmax, via_r2.cmax);
  const auto fpt = q2_fptas(inst, 0.05).value();
  EXPECT_LE(fpt.cmax.to_double(), 1.05 * dp.cmax.to_double() + 1e-9);
}

TEST(Q2GeneralDeath, RequiresTwoMachines) {
  const auto inst = make_uniform_instance({1}, {1, 1, 1}, Graph(1));
  EXPECT_DEATH(q2_weighted_exact_dp(inst), "two machines");
}

}  // namespace
}  // namespace bisched
