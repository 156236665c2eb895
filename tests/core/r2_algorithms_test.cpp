#include "core/r2_algorithms.hpp"

#include <gtest/gtest.h>

#include "core/exact_bb.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

TEST(Alg4TwoApprox, ValidAndWithinFactorTwo) {
  Rng rng(2021);
  for (int iter = 0; iter < 50; ++iter) {
    const auto inst = testing::random_r2_instance(
        1 + static_cast<int>(rng.uniform_int(0, 4)), 1 + static_cast<int>(rng.uniform_int(0, 4)),
        12, rng);
    const auto approx = r2_two_approx(inst);
    EXPECT_EQ(validate(inst, approx.schedule), ScheduleStatus::kValid);
    EXPECT_EQ(makespan(inst, approx.schedule), approx.cmax);
    const auto exact = exact_unrelated_bb(inst);
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(approx.cmax, 2 * exact.cmax) << "Theorem 21 violated";
    EXPECT_GE(approx.cmax, exact.cmax);
  }
}

TEST(Alg4TwoApprox, SingleComponentPicksDominantOrientation) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_unrelated_instance({{1, 5}, {9, 2}}, std::move(g));
  const auto approx = r2_two_approx(inst);
  // Forced orientation side0->M1: loads (1, 2), cmax 2 — also the optimum.
  EXPECT_EQ(approx.cmax, 2);
}

TEST(Alg4TwoApprox, AllZeroTimes) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_unrelated_instance({{0, 0}, {0, 0}}, std::move(g));
  EXPECT_EQ(r2_two_approx(inst).cmax, 0);
}

class Alg5Eps : public ::testing::TestWithParam<double> {};

TEST_P(Alg5Eps, WithinGuaranteeOfExact) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 997) + 3);
  for (int iter = 0; iter < 25; ++iter) {
    const auto inst = testing::random_r2_instance(
        1 + static_cast<int>(rng.uniform_int(0, 4)), 1 + static_cast<int>(rng.uniform_int(0, 4)),
        15, rng);
    const auto approx = r2_fptas_bipartite(inst, eps).value();
    EXPECT_EQ(validate(inst, approx.schedule), ScheduleStatus::kValid);
    const auto exact = exact_unrelated_bb(inst);
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(static_cast<double>(approx.cmax),
              (1.0 + eps) * static_cast<double>(exact.cmax) + 1e-9)
        << "Theorem 22 violated at eps=" << eps;
    EXPECT_GE(approx.cmax, exact.cmax);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, Alg5Eps, ::testing::Values(1.0, 0.5, 0.2, 0.1, 0.02));

TEST(Alg5Fptas, NearExactWithTinyEps) {
  Rng rng(77);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = testing::random_r2_instance(
        1 + static_cast<int>(rng.uniform_int(0, 3)), 1 + static_cast<int>(rng.uniform_int(0, 3)),
        9, rng);
    const auto approx = r2_fptas_bipartite(inst, 1e-9).value();
    const auto exact = exact_unrelated_bb(inst);
    ASSERT_TRUE(exact.feasible);
    EXPECT_EQ(approx.cmax, exact.cmax);
  }
}

TEST(Alg5Fptas, NeverWorseThanAlg4) {
  Rng rng(31);
  for (int iter = 0; iter < 30; ++iter) {
    const auto inst = testing::random_r2_instance(
        1 + static_cast<int>(rng.uniform_int(0, 4)), 1 + static_cast<int>(rng.uniform_int(0, 4)),
        20, rng);
    EXPECT_LE(r2_fptas_bipartite(inst, 0.3).value().cmax, r2_two_approx(inst).cmax);
  }
}

TEST(R2ExactBipartite, MatchesBranchAndBound) {
  Rng rng(181);
  for (int iter = 0; iter < 40; ++iter) {
    const auto inst = testing::random_r2_instance(
        1 + static_cast<int>(rng.uniform_int(0, 4)), 1 + static_cast<int>(rng.uniform_int(0, 4)),
        12, rng);
    const auto fast = r2_exact_bipartite(inst);
    EXPECT_EQ(validate(inst, fast.schedule), ScheduleStatus::kValid);
    const auto bb = exact_unrelated_bb(inst);
    ASSERT_TRUE(bb.feasible);
    EXPECT_EQ(fast.cmax, bb.cmax);
  }
}

TEST(R2ExactBipartite, SandwichesApproximations) {
  Rng rng(191);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = testing::random_r2_instance(6, 6, 25, rng);
    const auto exact = r2_exact_bipartite(inst);
    const auto two = r2_two_approx(inst);
    const auto fpt = r2_fptas_bipartite(inst, 0.1).value();
    EXPECT_LE(exact.cmax, two.cmax);
    EXPECT_LE(two.cmax, 2 * exact.cmax);
    EXPECT_LE(exact.cmax, fpt.cmax);
    EXPECT_LE(static_cast<double>(fpt.cmax), 1.1 * static_cast<double>(exact.cmax) + 1e-9);
  }
}

TEST(Alg5Fptas, CrownInstance) {
  // Crown on 3+3 with asymmetric machines: exact comparison sanity check.
  auto g = crown(3);
  std::vector<std::vector<std::int64_t>> times(2, std::vector<std::int64_t>(6));
  for (int j = 0; j < 6; ++j) {
    times[0][static_cast<std::size_t>(j)] = 2;
    times[1][static_cast<std::size_t>(j)] = 3;
  }
  const auto inst = make_unrelated_instance(std::move(times), std::move(g));
  const auto approx = r2_fptas_bipartite(inst, 0.01).value();
  const auto exact = exact_unrelated_bb(inst);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(approx.cmax, exact.cmax);
}

}  // namespace
}  // namespace bisched
