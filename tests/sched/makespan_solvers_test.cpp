#include "sched/makespan_solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "engine/portfolio.hpp"
#include "sched/schedule.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

std::vector<R2Job> random_jobs(int n, std::int64_t tmax, Rng& rng) {
  std::vector<R2Job> jobs(static_cast<std::size_t>(n));
  for (auto& j : jobs) {
    j.p1 = rng.uniform_int(0, tmax);
    j.p2 = rng.uniform_int(0, tmax);
  }
  return jobs;
}

void expect_consistent(const R2Result& r, std::span<const R2Job> jobs) {
  std::int64_t l1 = 0, l2 = 0;
  ASSERT_EQ(r.on_machine2.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    (r.on_machine2[j] ? l2 : l1) += r.on_machine2[j] ? jobs[j].p2 : jobs[j].p1;
  }
  EXPECT_EQ(l1, r.load1);
  EXPECT_EQ(l2, r.load2);
  EXPECT_EQ(std::max(l1, l2), r.cmax);
}

TEST(R2Greedy, PicksMinMachinePerJob) {
  const std::vector<R2Job> jobs{{3, 5}, {9, 2}, {4, 4}};
  const auto r = r2_greedy(jobs);
  EXPECT_EQ(r.on_machine2[0], 0);
  EXPECT_EQ(r.on_machine2[1], 1);
  EXPECT_EQ(r.on_machine2[2], 0);  // tie -> machine 1
  expect_consistent(r, jobs);
}

TEST(R2Greedy, WithinTwiceOptimal) {
  Rng rng(1);
  for (int iter = 0; iter < 40; ++iter) {
    const auto jobs = random_jobs(1 + static_cast<int>(rng.uniform_int(0, 9)), 20, rng);
    const auto greedy = r2_greedy(jobs);
    const auto exact = r2_exact(jobs);
    expect_consistent(greedy, jobs);
    EXPECT_LE(greedy.cmax, 2 * exact.cmax + 1);  // +1 covers cmax==0 corner
  }
}

TEST(R2Exact, KnownInstances) {
  // Perfectly splittable.
  const std::vector<R2Job> jobs{{2, 2}, {2, 2}};
  EXPECT_EQ(r2_exact(jobs).cmax, 2);
  // One job dominates.
  const std::vector<R2Job> jobs2{{10, 1}};
  EXPECT_EQ(r2_exact(jobs2).cmax, 1);
  // Empty.
  EXPECT_EQ(r2_exact(std::vector<R2Job>{}).cmax, 0);
  // All zero.
  const std::vector<R2Job> zeros{{0, 0}, {0, 0}};
  EXPECT_EQ(r2_exact(zeros).cmax, 0);
}

TEST(R2Exact, MatchesBruteForce) {
  Rng rng(7);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 9));
    const auto jobs = random_jobs(n, 15, rng);
    std::vector<std::vector<std::int64_t>> times(2, std::vector<std::int64_t>(n));
    for (int j = 0; j < n; ++j) {
      times[0][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p1;
      times[1][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p2;
    }
    const auto exact = r2_exact(jobs);
    expect_consistent(exact, jobs);
    EXPECT_EQ(exact.cmax, rm_bruteforce_makespan(times));
  }
}

class R2FptasEps : public ::testing::TestWithParam<double> {};

TEST_P(R2FptasEps, WithinGuaranteeOfExact) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1000) + 11);
  for (int iter = 0; iter < 30; ++iter) {
    const auto jobs = random_jobs(1 + static_cast<int>(rng.uniform_int(0, 11)), 50, rng);
    const auto exact = r2_exact(jobs);
    const auto approx = r2_fptas(jobs, eps).value();
    expect_consistent(approx, jobs);
    // cmax <= (1+eps) * OPT, exact integer arithmetic with rounding slack.
    const double bound = (1.0 + eps) * static_cast<double>(exact.cmax) + 1e-9;
    EXPECT_LE(static_cast<double>(approx.cmax), bound)
        << "eps=" << eps << " opt=" << exact.cmax << " got=" << approx.cmax;
    EXPECT_GE(approx.cmax, exact.cmax);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, R2FptasEps,
                         ::testing::Values(1.0, 0.5, 0.25, 0.1, 0.05, 0.01));

TEST(R2Fptas, ExactWhenEpsTiny) {
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    const auto jobs = random_jobs(1 + static_cast<int>(rng.uniform_int(0, 7)), 12, rng);
    const auto exact = r2_exact(jobs);
    // eps < 1 / (sum of all times) forces delta = 1 -> exact.
    const auto approx = r2_fptas(jobs, 1e-9).value();
    EXPECT_EQ(approx.cmax, exact.cmax);
  }
}

TEST(R2Fptas, ExactWhileDeltaRoundsDownToOne) {
  // delta = max(1, floor(eps * LB / n)): just below eps * LB / n = 2 the
  // scale is still 1, so the answer is exact. A scale rounded up or taken
  // from a larger bound than LB rounds times here and misses the optimum.
  Rng rng(6);
  for (int iter = 0; iter < 40; ++iter) {
    const auto jobs = random_jobs(4 + static_cast<int>(rng.uniform_int(0, 8)), 60, rng);
    std::int64_t lb = 1;
    std::int64_t sum_min = 0;
    for (const auto& job : jobs) {
      lb = std::max(lb, std::min(job.p1, job.p2));
      sum_min += std::min(job.p1, job.p2);
    }
    lb = std::max(lb, (sum_min + 1) / 2);
    const double eps = 1.99 * static_cast<double>(jobs.size()) / static_cast<double>(lb);
    EXPECT_EQ(r2_fptas(jobs, eps).value().cmax, r2_exact(jobs).cmax) << "iter " << iter;
  }
}

TEST(R2Fptas, HandlesZeroJobs) {
  const std::vector<R2Job> zeros{{0, 0}, {0, 7}};
  const auto r = r2_fptas(zeros, 0.5).value();
  EXPECT_EQ(r.cmax, 0);
}

TEST(R2Fptas, HugeEpsCapsTheScaleAtGreedy) {
  // The wire admits any positive double for eps, 1e308 and inf included.
  // eps * LB / n is capped at greedy's makespan before the integer cast, so
  // every eps past the cap answers exactly as an in-range eps at the cap
  // does: a real schedule no worse than greedy's, never the product of an
  // out-of-range cast.
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    const auto jobs = random_jobs(1 + static_cast<int>(rng.uniform_int(0, 20)), 500, rng);
    const std::int64_t greedy = r2_greedy(jobs).cmax;
    // LB >= 1, so this eps already puts eps * LB / n at twice greedy's makespan.
    const auto at_cap = r2_fptas(jobs, 2.0 * static_cast<double>(jobs.size()) *
                                           static_cast<double>(greedy)).value();
    for (const double eps : {1e308, std::numeric_limits<double>::infinity()}) {
      const auto r = r2_fptas(jobs, eps);
      ASSERT_TRUE(r.has_value()) << "eps " << eps << " iter " << iter;
      expect_consistent(*r, jobs);
      EXPECT_LE(r->cmax, greedy) << "eps " << eps << " iter " << iter;
      EXPECT_EQ(r->on_machine2, at_cap.on_machine2) << "eps " << eps << " iter " << iter;
    }
  }
  Rng inst_rng(8);
  const auto r2 = testing::random_r2_instance(6, 6, 40, inst_rng);
  engine::SolveOptions options;
  options.eps = std::numeric_limits<double>::infinity();
  const auto result =
      engine::solve_named(engine::SolverRegistry::builtin(), "alg5", r2, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(validate(r2, result.schedule), ScheduleStatus::kValid);
}

TEST(RmBruteForce, ThreeMachines) {
  // Jobs with a clear optimal spread.
  const std::vector<std::vector<std::int64_t>> times{
      {1, 10, 10},
      {10, 1, 10},
      {10, 10, 1},
  };
  std::vector<int> assignment;
  EXPECT_EQ(rm_bruteforce_makespan(times, &assignment), 1);
  EXPECT_EQ(assignment, (std::vector<int>{0, 1, 2}));
}

TEST(RmBruteForce, SingleMachineSums) {
  const std::vector<std::vector<std::int64_t>> times{{2, 3, 4}};
  EXPECT_EQ(rm_bruteforce_makespan(times), 9);
}

}  // namespace
}  // namespace bisched
