// Algorithm 1 of the paper (Theorem 9): a sqrt(sum p_j)-approximation for
// Q|G = bipartite|Cmax — best possible up to constants by Theorem 8.
//
// Structure, following the paper's pseudocode line by line:
//   1. sum p_j <= 4: solve exactly by brute force.
//   2. I := maximum-weight independent set containing all "big" jobs
//      (p_j >= sqrt(sum p)), if the big jobs are themselves independent
//      (min-cut computation, src/graph/independent_set).
//   3. S1 := Algorithm 5 (R2 bipartite FPTAS, eps = 1) on the two fastest
//      machines — always feasible for bipartite G. When the FPTAS's DP table
//      would exceed its size guard, S1 is Algorithm 4's schedule there
//      instead: also a 2-approximation on those machines, which is all the
//      sqrt(sum p) bound uses of S1.
//   4-10. If I exists (and m >= 3): compute the lower bound C**_max (least
//      time whose floored capacities cover everything, M2..Mm cover J\I, and
//      M1 fits pmax); pick the machine prefix M2..Mk covering J\I; split J\I
//      by a weighted inequitable 2-coloring; fill M2..Mk' with the heavy
//      class J'_1, M(k'+1)..Mk with J'_2, and I onto M1 plus the leftover
//      machines — each group by plain list scheduling (every group receives
//      mutually compatible jobs only).
//   12. Return the better of S1 and S2.
#pragma once

#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/rational.hpp"

namespace bisched {

struct Alg1Result {
  Schedule schedule;
  Rational cmax;

  // Diagnostics for the ablation bench (A2).
  bool solved_exactly = false;  // step-1 brute force fired
  bool s2_built = false;        // the I-based schedule exists
  bool used_s2 = false;         // ... and won
  Rational s1_cmax = 0;
  Rational s2_cmax = 0;
  Rational cstarstar = 0;  // C**_max (0 when S2 not built)
  int k = 0;               // machine prefix covering J\I (0 when unused)
  int k_prime = 0;
};

// Requires bipartite conflicts; for m == 1 the conflict graph must be
// edgeless (otherwise no schedule exists at all).
Alg1Result alg1_sqrt_approx(const UniformInstance& inst);

}  // namespace bisched
