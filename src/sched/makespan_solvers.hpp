// Classic (conflict-free) makespan solvers for two unrelated machines.
//
// These are the substrate the paper leans on for its positive results: the
// FPTAS for R2||Cmax stands in for Jansen–Porkolab [15] (Theorem 20) and is
// consumed by Algorithm 5 (R2|G=bipartite|Cmax FPTAS) and, through it, by the
// exact Theorem 4 routine and Algorithm 1's two-machine schedule S1. The
// exact pseudo-polynomial DP is the test oracle; the greedy assignment
// provides the upper bound that seeds the FPTAS binary search.
//
// Contracts:
//   r2_greedy  — makespan <= sum_j min(p1_j, p2_j) <= 2 * OPT.
//   r2_exact   — optimal; one O(n * UB) DP pass, n * UB bits of choices,
//                with UB the greedy makespan.
//   r2_fptas   — makespan <= (1+eps) * OPT; O(n^2/eps * log UB) time.
//
// r2_exact needs no search: at delta = 1 the final row of one DP pass at
// budget UB holds, for every machine-1 load l1, the least machine-2 load, so
// OPT = min over l1 of max(l1, f[l1]) is read straight off it and the same
// pass's choice bits reconstruct the assignment (the seed binary search's
// answer, bit for bit; greedy's own assignment when greedy is optimal). The
// FPTASes still binary-search the makespan, because their rounding step
// depends on the probed makespan. Their probes share one scratch arena (no
// per-probe allocation). Each FPTAS has one probe mode, chosen by
// measurement: r2_fptas's search probes skip the choice matrix (about half
// the dense row's memory traffic) and one terminal probe at the accepted
// makespan writes the choices for reconstruction (Hirschberg-style —
// recompute once for the answer instead of recording always); r3_fptas's
// probes all write their 2-bit choices, which cost less in its sparse push
// loop than a terminal re-probe would. The DP kernels run in place over the
// reachable load window only, and the R2 row kernels dispatch at runtime
// over sched/simd_dispatch.hpp (scalar / AVX2 / AVX-512, `BISCHED_SIMD`
// overridable); every level returns bit-identical results — see
// docs/perf.md for the kernel design and measurements.
#pragma once

#include <cstdint>
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
R2Result r2_fptas(std::span<const R2Job> jobs, double eps);

// Optimal Rm||Cmax by branch and bound over job->machine assignments
// (no incompatibility constraints); exponential, for tests and tiny m/n.
std::int64_t rm_bruteforce_makespan(const std::vector<std::vector<std::int64_t>>& times,
                                    std::vector<int>* assignment = nullptr);

// ---- three machines (the Theorem 20 substrate beyond m = 2) ----------------
//
// The paper's positive results only consume the m = 2 FPTAS, but Theorem 20
// (Jansen–Porkolab) is stated for every fixed m; the m = 3 instantiation
// below follows the same trimmed-DP pattern with a two-dimensional load
// state, O(n * (n/eps)^2) time — the natural next step of the family and a
// building block for extending Algorithm 5 beyond two machines.

struct R3Job {
  std::int64_t p1 = 0;
  std::int64_t p2 = 0;
  std::int64_t p3 = 0;
};

struct R3Result {
  std::vector<std::uint8_t> machine_of;  // 0, 1, or 2 per job
  std::int64_t loads[3] = {0, 0, 0};
  std::int64_t cmax = 0;
};

// Each job on its fastest machine; makespan <= 3 * OPT.
R3Result r3_greedy(std::span<const R3Job> jobs);
// (1+eps)-approximate.
R3Result r3_fptas(std::span<const R3Job> jobs, double eps);

}  // namespace bisched
