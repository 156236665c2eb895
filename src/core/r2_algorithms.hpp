// Algorithms 4 and 5 of the paper: R2|G=bipartite|Cmax.
//
// Algorithm 4 (Theorem 21): after the Algorithm-3 reduction, send every
// decision job to the machine where its extra time is smaller. The resulting
// schedule is 2-approximate in O(n) time: the chosen extra total is minimal
// and any schedule pays at least (T1 + T2 + Textra)/2 while this one pays at
// most max(T1, T2) + Textra.
//
// Algorithm 5 (Theorem 22): an FPTAS. The mandatory base loads are encoded as
// two anchor jobs — anchor i has time base_i on machine i and a prohibitive
// time on the other machine (the paper suggests e.g. 3T for T the Algorithm-4
// makespan, which no (1+eps)-approximate schedule of OPT <= T can afford) —
// and the decision jobs plus anchors are fed to the classic R2||Cmax FPTAS.
// The assignment maps back to component orientations with identical loads.
#pragma once

#include <optional>

#include "core/r2_reduction.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"

namespace bisched {

struct R2ScheduleResult {
  Schedule schedule;
  std::int64_t cmax = 0;
};

// Algorithm 4: 2-approximate, O(n). Requires m == 2 and bipartite conflicts.
R2ScheduleResult r2_two_approx(const UnrelatedInstance& inst);

// Algorithm 5: makespan <= (1 + eps) * OPT. Requires m == 2 and bipartite
// conflicts; eps > 0 (Algorithm 1 invokes it with eps = 1). nullopt when the
// FPTAS's DP table would exceed its size guard (r2_fptas) — checked before
// anything is allocated, so callers fall back cheaply.
std::optional<R2ScheduleResult> r2_fptas_bipartite(const UnrelatedInstance& inst,
                                                   double eps);

// Exact optimum via the same reduction plus the pseudo-polynomial R2||Cmax
// DP over the decision jobs (one pass, O(n * UB) time and bits, UB their
// greedy makespan). Not part of the paper's algorithm suite — it is the
// certified-optimum oracle the benchmarks compare Algorithms 4/5 against at
// sizes beyond branch-and-bound reach.
R2ScheduleResult r2_exact_bipartite(const UnrelatedInstance& inst);

// The exact DP's input for a reduction: the decision job of every component
// that is not forced, in component order, then two anchors pinning base1 to
// machine 1 and base2 to machine 2.
std::vector<R2Job> r2_exact_dp_jobs(const R2Reduction& red);

}  // namespace bisched
