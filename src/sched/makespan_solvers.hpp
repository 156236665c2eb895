// Classic (conflict-free) makespan solvers for two unrelated machines.
//
// These are the substrate the paper leans on for its positive results: the
// FPTAS for R2||Cmax stands in for Jansen–Porkolab [15] (Theorem 20) and is
// consumed by Algorithm 5 (R2|G=bipartite|Cmax FPTAS) and, through it, by the
// exact Theorem 4 routine and Algorithm 1's two-machine schedule S1. The
// exact pseudo-polynomial DP is the test oracle; the greedy assignment
// provides the upper bound UB whose budget every DP pass runs at.
//
// Contracts:
//   r2_greedy  — makespan <= sum_j min(p1_j, p2_j) <= 2 * OPT.
//   r2_exact   — optimal; one O(n * UB) DP pass, n * UB bits of choices.
//   r2_fptas   — makespan <= (1+eps) * OPT and <= greedy's; one DP pass,
//                O(n^2/eps) time and bits. nullopt when that table would
//                exceed the size guard (n * (UB/delta + 1) > 2e9 states) —
//                decided before anything is allocated, so callers can fall
//                back instead of aborting.
//
// Both are the same code: the times are scaled once by delta (1 for
// r2_exact; max(1, floor(eps * LB / n)) for r2_fptas, LB <= OPT the
// lower bound from the largest unavoidable job and half the unavoidable
// total), one choice-writing pass runs at budget floor(UB / delta), the
// least scaled makespan is read off its final row and reconstructed. OPT's
// own assignment fits that budget, so the result is <= OPT + n * (delta - 1)
// <= (1+eps) * OPT; at delta = 1 it is OPT itself, the seed binary search's
// answer bit for bit. Greedy's assignment is returned unless the pass's is
// strictly better. The pass runs in place over the reachable load window
// only, and its row kernel dispatches at runtime over
// sched/simd_dispatch.hpp (scalar / AVX2 / AVX-512, `BISCHED_SIMD`
// overridable); every level returns bit-identical results — see
// docs/perf.md for the kernel design and measurements.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bisched {

struct R2Job {
  std::int64_t p1 = 0;  // processing time on machine 1
  std::int64_t p2 = 0;  // processing time on machine 2
};

struct R2Result {
  std::vector<std::uint8_t> on_machine2;  // 0 = machine 1, 1 = machine 2
  std::int64_t load1 = 0;
  std::int64_t load2 = 0;
  std::int64_t cmax = 0;
};

R2Result r2_greedy(std::span<const R2Job> jobs);
R2Result r2_exact(std::span<const R2Job> jobs);
std::optional<R2Result> r2_fptas(std::span<const R2Job> jobs, double eps);

// Optimal Rm||Cmax by branch and bound over job->machine assignments
// (no incompatibility constraints); exponential, for tests and tiny m/n.
std::int64_t rm_bruteforce_makespan(const std::vector<std::vector<std::int64_t>>& times,
                                    std::vector<int>* assignment = nullptr);

// The library stops at two machines: Theorem 24 (hardness/thm24.hpp) rules
// out approximation schemes for Rm|G=bipartite|Cmax at every fixed m >= 3.

}  // namespace bisched
