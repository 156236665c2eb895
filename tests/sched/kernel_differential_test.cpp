// Differential tests for the optimized R2 DP kernels, across randomized
// instances that exercise the edge cases (zero processing times, which flip
// the tie-break priority; duplicate times, which create ties; tiny and empty
// instances; and eps values from coarse to fine, which move the
// scaled-size-0 boundary).
//
// r2_exact must return *bit-identical* results — same cmax, same loads, same
// per-job assignment — as the seed's binary search preserved in
// tests/reference_kernels.hpp. r2_fptas scales once from the lower bound
// and so answers differently from the seed's search; it is held to what it
// promises instead: every dispatch level returns exactly the scalar level's
// result, cmax <= (1+eps) * OPT (OPT from the seed's exact DP), and
// cmax <= greedy's.
//
// Every check runs at EVERY dispatch level this host supports (scalar, AVX2,
// AVX-512 — forced through the BISCHED_SIMD override and a refresh), so the
// contracts cover every dispatch level, not just whatever this CPU happens
// to resolve to.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "reference_kernels.hpp"
#include "sched/makespan_solvers.hpp"
#include "sched/simd_dispatch.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

// Forces the dispatch level for a scope: sets BISCHED_SIMD and re-resolves,
// restoring detection-only dispatch on the way out.
class ForcedSimd {
 public:
  explicit ForcedSimd(SimdLevel level) {
    ::setenv("BISCHED_SIMD", to_string(level), 1);
    EXPECT_EQ(simd_refresh_level(), level);
  }
  ~ForcedSimd() {
    ::unsetenv("BISCHED_SIMD");
    simd_refresh_level();
  }
  ForcedSimd(const ForcedSimd&) = delete;
  ForcedSimd& operator=(const ForcedSimd&) = delete;
};

// Runs `body` once per dispatch level this host can execute.
template <typename Body>
void for_each_simd_level(Body&& body) {
  for (const SimdLevel level : simd_available_levels()) {
    ForcedSimd forced(level);
    body(to_string(level));
  }
}

std::vector<R2Job> random_r2_jobs(int n, std::int64_t tmin, std::int64_t tmax, Rng& rng) {
  std::vector<R2Job> jobs(static_cast<std::size_t>(n));
  for (auto& job : jobs) {
    job.p1 = rng.uniform_int(tmin, tmax);
    job.p2 = rng.uniform_int(tmin, tmax);
  }
  return jobs;
}

void expect_r2_identical(const R2Result& want, const R2Result& got, const char* what,
                         const char* isa, int trial) {
  EXPECT_EQ(want.cmax, got.cmax) << what << " " << isa << " trial " << trial;
  EXPECT_EQ(want.load1, got.load1) << what << " " << isa << " trial " << trial;
  EXPECT_EQ(want.load2, got.load2) << what << " " << isa << " trial " << trial;
  EXPECT_EQ(want.on_machine2, got.on_machine2) << what << " " << isa << " trial " << trial;
}

// The FPTAS contract at one dispatch level: the scalar level's exact result,
// within (1+eps) of OPT, and no worse than greedy.
void expect_within_guarantee(std::int64_t got, std::int64_t opt, std::int64_t greedy,
                             double eps, const char* what, const char* isa, int trial) {
  EXPECT_LE(static_cast<double>(got), (1.0 + eps) * static_cast<double>(opt) + 1e-9)
      << what << " " << isa << " trial " << trial << " eps " << eps << " opt " << opt;
  EXPECT_LE(got, greedy) << what << " " << isa << " trial " << trial;
}

// The shipped r2_fptas at every level against the scalar level and the seed
// exact optimum.
void expect_r2_fptas_contract(const std::vector<R2Job>& jobs, double eps, const char* what,
                              int trial) {
  const std::int64_t opt = reference::r2_exact(jobs).cmax;
  const std::int64_t greedy = r2_greedy(jobs).cmax;
  R2Result scalar;
  {
    ForcedSimd forced(SimdLevel::kScalar);
    scalar = r2_fptas(jobs, eps).value();
  }
  for_each_simd_level([&](const char* isa) {
    const R2Result got = r2_fptas(jobs, eps).value();
    expect_r2_identical(scalar, got, what, isa, trial);
    expect_within_guarantee(got.cmax, opt, greedy, eps, what, isa, trial);
  });
}

TEST(KernelDifferential, R2ExactMatchesSeedBitForBitAtEveryLevel) {
  for_each_simd_level([](const char* isa) {
    Rng rng(1001);
    for (int trial = 0; trial < 40; ++trial) {
      const int n = 1 + static_cast<int>(rng.uniform_int(0, 30));
      // tmin 0 exercises zero-size jobs (the s1 == 0 tie-break flip); a small
      // range forces many exact ties.
      const std::int64_t tmax = 1 + rng.uniform_int(0, 40);
      const auto jobs = random_r2_jobs(n, 0, tmax, rng);
      expect_r2_identical(reference::r2_exact(jobs), r2_exact(jobs), "r2_exact", isa, trial);
    }
  });
}

TEST(KernelDifferential, R2ExactWideRowsExerciseVectorBlocks) {
  // Cold-mix-sized instances: times up to 1000 make the exact row tens of
  // thousands of states wide, so the AVX2/AVX-512 main loops carry nearly
  // all of it (the trials above keep times <= 41), and the one pass at the
  // greedy makespan also fills states above the optimum that the seed's
  // probes never had. The seed answers are computed once, outside the level
  // sweep — they are the slow half.
  Rng rng(1007);
  std::vector<std::vector<R2Job>> instances;
  std::vector<R2Result> want;
  for (int trial = 0; trial < 6; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(140, 300));
    instances.push_back(random_r2_jobs(n, 1, 1000, rng));
    want.push_back(reference::r2_exact(instances.back()));
  }
  for_each_simd_level([&](const char* isa) {
    for (std::size_t trial = 0; trial < instances.size(); ++trial) {
      expect_r2_identical(want[trial], r2_exact(instances[trial]), "r2_exact_wide", isa,
                          static_cast<int>(trial));
    }
  });
}

TEST(KernelDifferential, R2ExactReturnsGreedyWhenGreedyIsOptimal) {
  // {6, 6}: greedy keeps the tie on machine 1, loads (6, 0); the pass's own
  // reconstruction would pick the least machine-1 load, (0, 6). Both are
  // optimal, but the seed's search never accepts a budget below 6 and so
  // answers with greedy's assignment — as must the one pass.
  const std::vector<R2Job> tie = {{6, 6}};
  for_each_simd_level([&](const char* isa) {
    const R2Result got = r2_exact(tie);
    EXPECT_EQ(got.on_machine2, std::vector<std::uint8_t>{0}) << isa;
    EXPECT_EQ(got.load1, 6) << isa;
    EXPECT_EQ(got.load2, 0) << isa;
    expect_r2_identical(reference::r2_exact(tie), got, "greedy_tie", isa, 0);
  });
}

TEST(KernelDifferential, R2FptasAgreesAcrossLevelsWithinGuarantee) {
  Rng rng(1002);
  const double epsilons[] = {1.0, 0.5, 0.2, 0.1, 0.03};
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 40));
    const std::int64_t tmax = 1 + rng.uniform_int(0, 200);
    const auto jobs = random_r2_jobs(n, 0, tmax, rng);
    expect_r2_fptas_contract(jobs, epsilons[trial % 5], "r2_fptas", trial);
  }
}

TEST(KernelDifferential, R2WideRowsExerciseVectorBlocks) {
  // Large processing times widen the scaled DP row past the 4- and 8-lane
  // block thresholds so the AVX2/AVX-512 main loops (not just their scalar
  // head/tail) run; fine eps keeps the budget — and therefore the row — wide.
  Rng rng(1005);
  for (int trial = 0; trial < 6; ++trial) {
    const auto jobs = random_r2_jobs(48, 50, 3000, rng);
    expect_r2_fptas_contract(jobs, 0.02, "r2_wide", trial);
  }
}

TEST(KernelDifferential, R2EdgeCasesAtEveryLevel) {
  // Empty, single-job, all-zero, and identical-jobs instances.
  const std::vector<R2Job> empty;
  expect_r2_fptas_contract(empty, 0.1, "empty", 0);
  const std::vector<R2Job> zeros(5, R2Job{0, 0});
  expect_r2_fptas_contract(zeros, 0.1, "zeros", 0);
  const std::vector<R2Job> same(7, R2Job{4, 4});
  expect_r2_fptas_contract(same, 0.5, "same", 0);

  for_each_simd_level([&](const char* isa) {
    expect_r2_identical(reference::r2_exact(zeros), r2_exact(zeros), "zeros", isa, 0);
    expect_r2_identical(reference::r2_exact(same), r2_exact(same), "same", isa, 0);
    const std::vector<R2Job> one = {{9, 2}};
    expect_r2_identical(reference::r2_exact(one), r2_exact(one), "one", isa, 0);
  });
}

}  // namespace
}  // namespace bisched
