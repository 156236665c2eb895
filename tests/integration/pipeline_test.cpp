// Cross-module property tests: every algorithm, on shared random instances,
// must emit validating schedules whose makespans sit between the certified
// lower bound and its proven guarantee against the exact optimum.
#include <gtest/gtest.h>

#include <tuple>

#include "core/alg_random.hpp"
#include "core/alg_sqrt.hpp"
#include "core/baselines.hpp"
#include "core/exact_bb.hpp"
#include "core/q2_unit_exact.hpp"
#include "core/r2_algorithms.hpp"
#include "random/gilbert.hpp"
#include "sched/list_schedule.hpp"
#include "sched/lower_bounds.hpp"
#include "testing_util.hpp"

namespace bisched {
namespace {

// (part_a, part_b, machines, weight_max, speed_max, seed)
using UniformParams = std::tuple<int, int, int, int, int, std::uint64_t>;

class UniformPipeline : public ::testing::TestWithParam<UniformParams> {};

TEST_P(UniformPipeline, AllAlgorithmsAgreeOnContracts) {
  const auto [a, b, m, wmax, smax, seed] = GetParam();
  Rng rng(seed);
  const auto inst = testing::random_uniform_instance(a, b, m, wmax, smax, rng);

  const Rational lb = lower_bound(inst);
  const auto exact = exact_uniform_bb(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_TRUE(lb <= exact.cmax);

  // Algorithm 1 (Theorem 9).
  const auto a1 = alg1_sqrt_approx(inst);
  ASSERT_EQ(validate(inst, a1.schedule), ScheduleStatus::kValid);
  EXPECT_TRUE(exact.cmax <= a1.cmax);
  testing::expect_le_sqrt_times(a1.cmax, inst.total_work(), exact.cmax, "Alg1 pipeline");

  // Algorithm 2 (valid on any bipartite instance; guarantee is for G(n,n,p)).
  const auto a2 = alg2_random_bipartite(inst);
  ASSERT_EQ(validate(inst, a2.schedule), ScheduleStatus::kValid);
  EXPECT_TRUE(exact.cmax <= a2.cmax);
  EXPECT_TRUE(lb <= a2.cmax);

  if (m >= 2) {
    const auto split = two_color_split(inst);
    ASSERT_EQ(validate(inst, split.schedule), ScheduleStatus::kValid);
    EXPECT_TRUE(exact.cmax <= split.cmax);
    const auto prop = class_proportional_split(inst);
    ASSERT_EQ(validate(inst, prop.schedule), ScheduleStatus::kValid);
    EXPECT_TRUE(exact.cmax <= prop.cmax);
  }

  Schedule greedy;
  if (greedy_conflict_lpt(inst, greedy)) {
    ASSERT_EQ(validate(inst, greedy), ScheduleStatus::kValid);
    EXPECT_TRUE(exact.cmax <= makespan(inst, greedy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UniformPipeline,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(2, 5),
                       ::testing::Values(2, 3, 5), ::testing::Values(1, 7),
                       ::testing::Values(1, 4),
                       ::testing::Values<std::uint64_t>(1, 99)));

// (part_a, part_b, time_max, eps_percent, seed)
using R2Params = std::tuple<int, int, int, int, std::uint64_t>;

class R2Pipeline : public ::testing::TestWithParam<R2Params> {};

TEST_P(R2Pipeline, ReductionApproxAndFptasContracts) {
  const auto [a, b, tmax, eps_pct, seed] = GetParam();
  Rng rng(seed);
  const auto inst = testing::random_r2_instance(a, b, tmax, rng);
  const double eps = eps_pct / 100.0;

  const auto exact = exact_unrelated_bb(inst);
  ASSERT_TRUE(exact.feasible);

  const auto approx = r2_two_approx(inst);
  ASSERT_EQ(validate(inst, approx.schedule), ScheduleStatus::kValid);
  EXPECT_GE(approx.cmax, exact.cmax);
  EXPECT_LE(approx.cmax, 2 * exact.cmax);

  const auto fptas = r2_fptas_bipartite(inst, eps).value();
  ASSERT_EQ(validate(inst, fptas.schedule), ScheduleStatus::kValid);
  EXPECT_GE(fptas.cmax, exact.cmax);
  EXPECT_LE(static_cast<double>(fptas.cmax),
            (1.0 + eps) * static_cast<double>(exact.cmax) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, R2Pipeline,
                         ::testing::Combine(::testing::Values(2, 4), ::testing::Values(3, 5),
                                            ::testing::Values(1, 20),
                                            ::testing::Values(100, 25, 5),
                                            ::testing::Values<std::uint64_t>(7, 1234)));

// Unit-job Q2 instances: all three exact routes agree.
class Q2Pipeline : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(Q2Pipeline, ThreeExactRoutesAgree) {
  const auto [n_half, smax, seed] = GetParam();
  Rng rng(seed);
  Graph g = gilbert_bipartite(n_half, 0.35, rng);
  const auto inst = make_uniform_instance(unit_weights(2 * n_half),
                                          {rng.uniform_int(1, smax), rng.uniform_int(1, smax)},
                                          std::move(g));
  const auto dp = q2_unit_exact_dp(inst);
  const auto via = q2_unit_exact_via_fptas(inst).value();
  const auto bb = exact_uniform_bb(inst);
  ASSERT_TRUE(bb.feasible);
  EXPECT_EQ(dp.cmax, bb.cmax);
  EXPECT_EQ(via.cmax, bb.cmax);
  EXPECT_EQ(validate(inst, dp.schedule), ScheduleStatus::kValid);
  EXPECT_EQ(validate(inst, via.schedule), ScheduleStatus::kValid);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Q2Pipeline,
                         ::testing::Combine(::testing::Values(3, 5, 7), ::testing::Values(1, 5),
                                            ::testing::Values<std::uint64_t>(3, 17, 2029)));

// Gilbert-model end-to-end: Algorithm 2's ratio against the certified LB on
// larger instances (no exact solve), across the paper's p(n) regimes.
class GilbertRegimeSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GilbertRegimeSweep, Alg2ValidAndBoundedByCoarseFactor) {
  const auto [n, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000) + static_cast<std::uint64_t>(p * 100));
  Graph g = gilbert_bipartite(n, p, rng);
  const auto inst =
      make_uniform_instance(unit_weights(2 * n), {7, 3, 2, 1, 1, 1}, std::move(g));
  const auto r = alg2_random_bipartite(inst);
  ASSERT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
  const double ratio = r.cmax.to_double() / lower_bound(inst).to_double();
  EXPECT_GE(ratio, 1.0 - 1e-9);
  EXPECT_LE(ratio, 4.0) << "n=" << n << " p=" << p;  // coarse sanity envelope
}

INSTANTIATE_TEST_SUITE_P(Sweep, GilbertRegimeSweep,
                         ::testing::Combine(::testing::Values(40, 120),
                                            ::testing::Values(0.004, 0.02, 0.1, 0.5)));

}  // namespace
}  // namespace bisched
