// Theorem 4: an exact polynomial algorithm for Q2|G=bipartite, p_j=1|Cmax.
//
// Two independent implementations, cross-checked in the tests:
//
// * `q2_unit_exact_dp` — the direct route. On two machines every proper
//   schedule is a proper 2-coloring, i.e. a choice of orientation per
//   connected component; the set of achievable "jobs on M1" counts is a
//   subset-sum over the component side sizes {a_c, b_c}. A bitset DP finds
//   all achievable splits in O(n^2 / 64) and the best split minimizes
//   max(n1/s1, n2/s2). This is the practical solver.
//
// * `q2_unit_exact_via_fptas` — the paper's proof route (appendix of
//   Theorem 4): for each candidate split (n1, n2), build the R2 instance
//   where every job costs n2 on M1 and n1 on M2, so a feasible split yields
//   makespan exactly n1*n2 and any imbalance overshoots by a factor
//   > 1 + 1/n; running the Algorithm-5 FPTAS with eps = 1/(n+1) therefore
//   decides feasibility exactly. O(n) FPTAS invocations (the paper's O(n^3)).
#pragma once

#include <optional>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/rational.hpp"

namespace bisched {

struct Q2ExactResult {
  Schedule schedule;
  Rational cmax;
  std::int64_t jobs_on_m1 = 0;
};

// Requires m == 2, all p_j == 1, bipartite conflicts. The FPTAS route is
// nullopt when one of its FPTAS tables would exceed the size guard
// (r2_fptas_bipartite).
Q2ExactResult q2_unit_exact_dp(const UniformInstance& inst);
std::optional<Q2ExactResult> q2_unit_exact_via_fptas(const UniformInstance& inst);

// The set of achievable M1 job counts (exposed for tests/benches).
std::vector<std::uint8_t> q2_achievable_splits(const UniformInstance& inst);

}  // namespace bisched
