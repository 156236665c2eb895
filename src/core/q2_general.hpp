// Q2|G=bipartite|Cmax with ARBITRARY processing requirements — the natural
// companion of Theorem 4 (which is the unit-job case). The paper derives its
// two-machine results from the R2 machinery; these wrappers make that
// derivation a first-class API:
//
// * q2_fptas           — Algorithm 5 on the speed-scaled R2 embedding
//                        ((1+eps)-approximate; Theorem 22 + the Q->R
//                        embedding of instance.hpp).
// * q2_exact_via_r2    — exact optimum via the Algorithm-3 reduction plus
//                        the pseudo-polynomial R2||Cmax DP.
// * q2_weighted_exact_dp — direct pseudo-polynomial solver: on two machines
//                        a schedule is a component-orientation choice, so the
//                        achievable machine-1 loads form a two-option
//                        subset-sum over component side weights; a bitset DP
//                        enumerates them in O(#components * sum p / 64).
//
// All three agree (cross-checked in tests); they differ in scaling knobs.
#pragma once

#include <optional>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/rational.hpp"

namespace bisched {

struct Q2Result {
  Schedule schedule;
  Rational cmax;
};

// Requires m == 2 and bipartite conflicts (all three). q2_fptas is nullopt
// when the FPTAS's DP table would exceed its size guard (r2_fptas_bipartite).
std::optional<Q2Result> q2_fptas(const UniformInstance& inst, double eps);
Q2Result q2_exact_via_r2(const UniformInstance& inst);
Q2Result q2_weighted_exact_dp(const UniformInstance& inst);

// Exposed for tests/benches: the set of achievable machine-1 loads (indexed
// 0..total_work) under component orientations.
std::vector<std::uint8_t> q2_achievable_loads(const UniformInstance& inst);

}  // namespace bisched
