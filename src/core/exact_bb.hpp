// Exact branch-and-bound solvers for small instances (n <= 64): the test and
// bench oracles, and the portfolio's first try on small requests.
//
// One DFS serves both models: jobs in order (isolated jobs last, then by
// processing time — fastest time for R — and degree, descending), each
// assigned a machine under the independence constraint. A machine's load is
// an integer (work for Q, time for R), so the incumbent C turns into integer
// capacities cap_i = ceil(C * s_i) - 1 (Q) or C - 1 (R): the most load
// machine i can carry and still finish strictly before C.
//   * Incumbent: seeded by a conflict-aware list schedule (greedy_conflict_lpt
//     for Q, earliest completion for R); every leaf the search reaches
//     improves it and recomputes the caps.
//   * Root bound: max(cover-all, pmax), plus the off-M1 independent-set bound
//     when those leave a gap (Q); max(largest fastest time, ceil(sum of
//     fastest times / m)) (R). The search stops once the incumbent meets it.
//   * Fill: when the seed misses the root bound B, one capacitated DSATUR
//     pass runs before the DFS. Machine i holds at most cap_at(B, i) =
//     floor(B * s_i) (Q) or B (R); the job that fits the fewest machines
//     (conflict-free, within capacity; ties to larger fastest time, higher
//     degree, lower index) goes to the machine it leaves the most slack on.
//     If every job is placed the schedule meets B and is optimal; the pass
//     stops at the first job that fits nowhere and the DFS runs as before.
//   * Pruning: a placement must fit under its machine's cap; a node whose
//     loads exceed the (since tightened) caps is cut; a node is cut when the
//     total slack sum_i (cap_i - load_i) is below the work still to place
//     (sum of fastest times for R).
//   * Cut: from the first deadline poll (node 4096) on, the König argument
//     the off-M1 root bound makes once runs at every node. With U the
//     unplaced jobs, w their fastest times and E = sum_i slack_i - w(U), the
//     others absorb at most their slack, so machine i must take weight
//     need_i = slack_i - E from U, as an independent set of A_i (the jobs of
//     U conflict-free on i). The node is cut when w(A_i) < need_i, or when
//     w(A_i) minus the lighter ends of a matching of A_i is (an independent
//     set misses an end of every matching edge). The matching is skipped
//     when a layer of A_i already weighs need_i; it runs on 64-bit masks
//     across a BFS 2-layering, exact for unit weights on a bipartite graph
//     and smaller but still valid on others.
//   * Symmetry: among empty interchangeable machines (equal speed for Q,
//     equal time rows for R) only the first is tried, and of two adjacent
//     twins in the order — isolated jobs, or leaves of one vertex, with equal
//     times — the second takes a machine index >= the first's.
// Exponential in the worst case; a truncated search keeps its incumbent but
// proves nothing.
#pragma once

#include <chrono>
#include <cstdint>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/rational.hpp"

namespace bisched {

struct ExactUniformResult {
  bool feasible = false;
  bool aborted = false;    // budget exhausted before finding any schedule
  bool truncated = false;  // search stopped early: an incumbent in
                           // `schedule` is valid but NOT proven optimal
  Schedule schedule;
  Rational cmax;
  std::uint64_t nodes = 0;  // DFS nodes visited (0 when the seed or the fill
                            // met the root bound, so no DFS ran)
};

struct ExactUnrelatedResult {
  bool feasible = false;
  bool aborted = false;
  bool truncated = false;
  Schedule schedule;
  std::int64_t cmax = 0;
  std::uint64_t nodes = 0;
};

// max_nodes = 0 means unlimited. `deadline` (max() = none) is polled every
// few thousand nodes: past it the search aborts like a node-budget
// exhaustion, keeping any incumbent found so far — how the engine's run-all
// budget binds inside this solver rather than only between solvers.
ExactUniformResult exact_uniform_bb(
    const UniformInstance& inst, std::uint64_t max_nodes = 0,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max());
ExactUnrelatedResult exact_unrelated_bb(
    const UnrelatedInstance& inst, std::uint64_t max_nodes = 0,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max());

}  // namespace bisched
