#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/makespan_solvers.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

std::vector<R3Job> random_jobs(int n, std::int64_t tmax, Rng& rng) {
  std::vector<R3Job> jobs(static_cast<std::size_t>(n));
  for (auto& j : jobs) {
    j.p1 = rng.uniform_int(0, tmax);
    j.p2 = rng.uniform_int(0, tmax);
    j.p3 = rng.uniform_int(0, tmax);
  }
  return jobs;
}

void expect_consistent(const R3Result& r, std::span<const R3Job> jobs) {
  std::int64_t loads[3] = {0, 0, 0};
  ASSERT_EQ(r.machine_of.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_LE(r.machine_of[j], 2);
    const std::int64_t t = r.machine_of[j] == 0
                               ? jobs[j].p1
                               : (r.machine_of[j] == 1 ? jobs[j].p2 : jobs[j].p3);
    loads[r.machine_of[j]] += t;
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(loads[i], r.loads[i]);
  EXPECT_EQ(std::max({loads[0], loads[1], loads[2]}), r.cmax);
}

TEST(R3Greedy, PicksFastestMachine) {
  const std::vector<R3Job> jobs{{1, 5, 9}, {7, 2, 9}, {7, 8, 3}};
  const auto r = r3_greedy(jobs);
  EXPECT_EQ(r.machine_of, (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(r.cmax, 3);
  expect_consistent(r, jobs);
}

TEST(R3Greedy, EmptyAndZero) {
  EXPECT_EQ(r3_greedy(std::vector<R3Job>{}).cmax, 0);
  const std::vector<R3Job> zeros{{0, 0, 0}};
  EXPECT_EQ(r3_greedy(zeros).cmax, 0);
}

class R3FptasEps : public ::testing::TestWithParam<double> {};

TEST_P(R3FptasEps, WithinGuaranteeOfBruteForce) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 997) + 41);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 8));
    const auto jobs = random_jobs(n, 20, rng);
    std::vector<std::vector<std::int64_t>> times(3, std::vector<std::int64_t>(n));
    for (int j = 0; j < n; ++j) {
      times[0][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p1;
      times[1][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p2;
      times[2][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p3;
    }
    const std::int64_t opt = rm_bruteforce_makespan(times);
    const auto approx = r3_fptas(jobs, eps);
    expect_consistent(approx, jobs);
    EXPECT_GE(approx.cmax, opt);
    EXPECT_LE(static_cast<double>(approx.cmax), (1.0 + eps) * static_cast<double>(opt) + 1e-9)
        << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, R3FptasEps, ::testing::Values(1.0, 0.5, 0.25, 0.1));

TEST(R3Fptas, ExactWithTinyEpsOnSmallSums) {
  Rng rng(43);
  for (int iter = 0; iter < 10; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    const auto jobs = random_jobs(n, 8, rng);
    std::vector<std::vector<std::int64_t>> times(3, std::vector<std::int64_t>(n));
    for (int j = 0; j < n; ++j) {
      times[0][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p1;
      times[1][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p2;
      times[2][static_cast<std::size_t>(j)] = jobs[static_cast<std::size_t>(j)].p3;
    }
    const auto approx = r3_fptas(jobs, 1e-9);
    EXPECT_EQ(approx.cmax, rm_bruteforce_makespan(times));
  }
}

TEST(R3Fptas, ExactWhileDeltaRoundsDownToOne) {
  // As for R2: just below eps * LB / n = 2 the scale is still 1, so the
  // answer is exact; LB is the larger of the biggest unavoidable job and a
  // third of the unavoidable total.
  Rng rng(44);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = 4 + static_cast<int>(rng.uniform_int(0, 5));
    const auto jobs = random_jobs(n, 30, rng);
    std::vector<std::vector<std::int64_t>> times(3);
    std::int64_t lb = 1;
    std::int64_t sum_min = 0;
    for (const R3Job& job : jobs) {
      times[0].push_back(job.p1);
      times[1].push_back(job.p2);
      times[2].push_back(job.p3);
      lb = std::max(lb, std::min({job.p1, job.p2, job.p3}));
      sum_min += std::min({job.p1, job.p2, job.p3});
    }
    lb = std::max(lb, (sum_min + 2) / 3);
    const double eps = 1.99 * static_cast<double>(n) / static_cast<double>(lb);
    EXPECT_EQ(r3_fptas(jobs, eps).cmax, rm_bruteforce_makespan(times)) << "iter " << iter;
  }
}

TEST(R3Fptas, PerfectTripartition) {
  // Nine unit jobs, same time everywhere: optimum 3 per machine.
  std::vector<R3Job> jobs(9, R3Job{1, 1, 1});
  const auto r = r3_fptas(jobs, 0.05);
  EXPECT_EQ(r.cmax, 3);
}

TEST(R3Fptas, AllZeroJobs) {
  const std::vector<R3Job> zeros{{0, 0, 0}, {0, 0, 0}};
  EXPECT_EQ(r3_fptas(zeros, 0.5).cmax, 0);
}

}  // namespace
}  // namespace bisched
