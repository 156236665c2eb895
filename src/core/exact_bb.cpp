#include "core/exact_bb.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

#include "sched/list_schedule.hpp"
#include "sched/lower_bounds.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

using i128 = __int128;

constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();

// Deadline polling cadence: steady_clock::now() costs ~20ns, a DFS node a
// few ns, so checking every 4096 nodes keeps the overhead under 1% while
// bounding deadline overshoot to microseconds.
constexpr std::uint64_t kDeadlinePollMask = 4095;

bool past_deadline(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

std::int64_t saturate(i128 v) {
  return v > kNoCap ? kNoCap : static_cast<std::int64_t>(v);
}

// Conflict masks (n <= 64): adjacency[j] holds job j's neighbors, and a
// machine's `blocked` mask the neighbors of the jobs on it, so a job fits the
// machine when its bit is clear there.
std::uint64_t bit(int job) { return std::uint64_t{1} << job; }

std::vector<std::uint64_t> adjacency_masks(const Graph& g) {
  std::vector<std::uint64_t> adjacency(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.neighbors(u)) adjacency[static_cast<std::size_t>(u)] |= bit(v);
  }
  return adjacency;
}

// The two load models the search runs over. A machine's load is an integer
// (work for Q, time for R), so "finishes strictly before the incumbent" is
// the integer capacity `cap`, and the search itself never touches Rational.

struct UniformModel {
  using Value = Rational;
  using Result = ExactUniformResult;
  const UniformInstance& inst;

  std::int64_t time(int /*machine*/, int job) const {
    return inst.p[static_cast<std::size_t>(job)];
  }
  std::int64_t min_time(int job) const { return inst.p[static_cast<std::size_t>(job)]; }
  bool same_times(int a, int b) const { return time(0, a) == time(0, b); }
  bool same_machine(int a, int b) const {
    return inst.speeds[static_cast<std::size_t>(a)] == inst.speeds[static_cast<std::size_t>(b)];
  }
  Value finish(std::int64_t load, int machine) const {
    return Rational(load, inst.speeds[static_cast<std::size_t>(machine)]);
  }
  // ⌈best·s_i⌉ − 1: the most work machine i holds while finishing before `best`.
  std::int64_t cap(const Value& best, int machine) const {
    const i128 work =
        static_cast<i128>(best.num()) * inst.speeds[static_cast<std::size_t>(machine)];
    return saturate((work + best.den() - 1) / best.den() - 1);
  }
  // ⌊bound·s_i⌋: the most work machine i finishes by `bound`.
  std::int64_t cap_at(const Value& bound, int machine) const {
    return saturate(static_cast<i128>(bound.num()) *
                    inst.speeds[static_cast<std::size_t>(machine)] / bound.den());
  }
  bool seed(Schedule& s) const { return greedy_conflict_lpt(inst, s); }
  // The cheap bounds always; the max-weight-IS bound only when they leave a
  // gap to the incumbent (it costs a min-cut).
  Value lower_bound(const Value* incumbent) const {
    Value bound = rat_max(lb_cover_all(inst), lb_pmax(inst));
    if (incumbent == nullptr || bound < *incumbent) {
      if (const auto off1 = lb_off_machine1(inst); off1.has_value()) bound = rat_max(bound, *off1);
    }
    return bound;
  }
};

struct UnrelatedModel {
  using Value = std::int64_t;
  using Result = ExactUnrelatedResult;
  const UnrelatedInstance& inst;

  std::int64_t time(int machine, int job) const {
    return inst.times[static_cast<std::size_t>(machine)][static_cast<std::size_t>(job)];
  }
  std::int64_t min_time(int job) const {
    std::int64_t t = kNoCap;
    for (int i = 0; i < inst.num_machines(); ++i) t = std::min(t, time(i, job));
    return t;
  }
  bool same_times(int a, int b) const {
    for (int i = 0; i < inst.num_machines(); ++i) {
      if (time(i, a) != time(i, b)) return false;
    }
    return true;
  }
  bool same_machine(int a, int b) const {
    return inst.times[static_cast<std::size_t>(a)] == inst.times[static_cast<std::size_t>(b)];
  }
  Value finish(std::int64_t load, int /*machine*/) const { return load; }
  std::int64_t cap(Value best, int /*machine*/) const { return best - 1; }
  std::int64_t cap_at(Value bound, int /*machine*/) const { return bound; }
  // Conflict-aware earliest completion: each job (by descending fastest
  // time) goes to the conflict-free machine it finishes on first.
  bool seed(Schedule& s) const {
    const int n = inst.num_jobs();
    const int m = inst.num_machines();
    std::vector<std::int64_t> fastest(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) fastest[static_cast<std::size_t>(j)] = min_time(j);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return fastest[static_cast<std::size_t>(a)] > fastest[static_cast<std::size_t>(b)];
    });
    s.machine_of.assign(static_cast<std::size_t>(n), -1);
    std::vector<std::int64_t> loads(static_cast<std::size_t>(m), 0);
    const std::vector<std::uint64_t> adjacency = adjacency_masks(inst.conflicts);
    std::vector<std::uint64_t> blocked(static_cast<std::size_t>(m), 0);
    for (int j : order) {
      int pick = -1;
      for (int i = 0; i < m; ++i) {
        if ((blocked[static_cast<std::size_t>(i)] & bit(j)) != 0) continue;
        if (pick < 0 || loads[static_cast<std::size_t>(i)] + time(i, j) <
                            loads[static_cast<std::size_t>(pick)] + time(pick, j)) {
          pick = i;
        }
      }
      if (pick < 0) return false;
      s.machine_of[static_cast<std::size_t>(j)] = pick;
      loads[static_cast<std::size_t>(pick)] += time(pick, j);
      blocked[static_cast<std::size_t>(pick)] |= adjacency[static_cast<std::size_t>(j)];
    }
    return true;
  }
  // Every job takes at least its fastest time somewhere: the largest such
  // time, and their total spread evenly over the machines.
  Value lower_bound(const Value* /*incumbent*/) const {
    i128 total = 0;
    std::int64_t longest = 0;
    for (int j = 0; j < inst.num_jobs(); ++j) {
      total += min_time(j);
      longest = std::max(longest, min_time(j));
    }
    const int m = inst.num_machines();
    return std::max(longest, saturate((total + m - 1) / m));
  }
};

// Twin class of a job for symmetry breaking: isolated jobs share class n, the
// leaves of vertex v share class v; anything else has no twin (-1). Jobs of
// one class with equal times are interchangeable in every schedule.
int twin_class(const Graph& g, int job) {
  if (g.degree(job) == 0) return g.num_vertices();
  if (g.degree(job) == 1) return g.neighbors(job)[0];
  return -1;
}

// The independent-set cut (exact_bb.hpp, "Cut") over 64-bit job masks. The
// jobs machine i takes from the unplaced set U form an independent set inside
// A_i, the jobs of U conflict-free on i; the other machines hold at most their
// slack, so i must take weight (fastest times) need_i = slack_i - E, where the
// excess E is the total slack minus w(U). An independent set misses an end of
// every matching edge, so w(A_i) minus the lighter ends of a matching bounds
// what i can take (exactly, for unit weights on a bipartite graph: König).
class IndependentSetCut {
 public:
  // A BFS 2-layering of the conflict graph: a proper 2-coloring when it is
  // bipartite; otherwise edges inside a layer are ignored, which only shrinks
  // the matching and so the cut.
  IndependentSetCut(const std::vector<std::uint64_t>& adjacency,
                    const std::vector<std::int64_t>& size)
      : adjacency_(adjacency), size_(size) {
    const int n = static_cast<int>(adjacency.size());
    std::uint64_t unseen = n == 64 ? ~std::uint64_t{0} : bit(n) - 1;
    while (unseen != 0) {
      std::uint64_t frontier = unseen & -unseen;
      for (int layer = 0; frontier != 0; layer ^= 1) {
        unseen &= ~frontier;
        layers_[layer] |= frontier;
        std::uint64_t next = 0;
        for (; frontier != 0; frontier &= frontier - 1) {
          next |= adjacency[static_cast<std::size_t>(std::countr_zero(frontier))];
        }
        frontier = next & unseen;
      }
    }
  }

  // True when some machine cannot take the weight the others leave it;
  // `excess` is E >= 0.
  bool cuts(std::uint64_t unplaced, const std::vector<std::uint64_t>& blocked,
            const std::vector<std::int64_t>& loads, const std::vector<std::int64_t>& cap,
            i128 excess) const {
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      const i128 need = static_cast<i128>(cap[i]) - loads[i] - excess;
      if (need <= 0) continue;
      const std::uint64_t left = unplaced & ~blocked[i] & layers_[0];
      const std::uint64_t right = unplaced & ~blocked[i] & layers_[1];
      const i128 w_left = weight(left);
      const i128 w_right = weight(right);
      if (w_left + w_right < need) return true;
      // A layer of a bipartite graph is itself independent: nothing to prove.
      if (std::max(w_left, w_right) >= need) continue;
      if (w_left + w_right - matched_weight(left, right) < need) return true;
    }
    return false;
  }

 private:
  i128 weight(std::uint64_t mask) const {
    i128 w = 0;
    for (; mask != 0; mask &= mask - 1) w += size_[static_cast<std::size_t>(std::countr_zero(mask))];
    return w;
  }

  // Sum of min(w_u, w_v) over a maximum matching between `left` and `right`
  // (augmenting paths).
  i128 matched_weight(std::uint64_t left, std::uint64_t right) const {
    std::array<int, 64> mate;
    mate.fill(-1);
    for (std::uint64_t rest = left; rest != 0; rest &= rest - 1) {
      std::uint64_t visited = 0;
      augment(std::countr_zero(rest), right, visited, mate);
    }
    i128 w = 0;
    for (std::uint64_t rest = right; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      const int u = mate[static_cast<std::size_t>(v)];
      if (u >= 0) {
        w += std::min(size_[static_cast<std::size_t>(u)], size_[static_cast<std::size_t>(v)]);
      }
    }
    return w;
  }

  bool augment(int u, std::uint64_t right, std::uint64_t& visited,
               std::array<int, 64>& mate) const {
    const std::uint64_t reach = adjacency_[static_cast<std::size_t>(u)] & right;
    for (std::uint64_t next = reach & ~visited; next != 0; next = reach & ~visited) {
      const int v = std::countr_zero(next);
      visited |= bit(v);
      int& owner = mate[static_cast<std::size_t>(v)];
      if (owner < 0 || augment(owner, right, visited, mate)) {
        owner = u;
        return true;
      }
    }
    return false;
  }

  const std::vector<std::uint64_t>& adjacency_;
  const std::vector<std::int64_t>& size_;
  std::uint64_t layers_[2] = {0, 0};
};

// One capacitated DSATUR pass at the root bound (exact_bb.hpp, "Fill"):
// machine i holds at most cap_at(bound, i), and the pass places the job that
// fits the fewest machines (ties: larger fastest time `size`, then higher
// degree, then lower index) on the machine it leaves the most slack on. True
// with the schedule in `current` and its loads in `loads` once every job is
// placed; false as soon as some job fits nowhere, with `current`, `loads` and
// `blocked` emptied again for the DFS. `cap` is left at the fill's caps.
template <typename Model>
bool fill_at_bound(const Model& model, const typename Model::Value& bound,
                   const std::vector<std::int64_t>& size, std::vector<std::int64_t>& cap,
                   Schedule& current, std::vector<std::int64_t>& loads,
                   const std::vector<std::uint64_t>& adjacency,
                   std::vector<std::uint64_t>& blocked) {
  const Graph& g = model.inst.conflicts;
  const int n = model.inst.num_jobs();
  const int m = model.inst.num_machines();
  for (int i = 0; i < m; ++i) cap[static_cast<std::size_t>(i)] = model.cap_at(bound, i);
  const auto slack = [&](int i, int job) {
    return cap[static_cast<std::size_t>(i)] - loads[static_cast<std::size_t>(i)] -
           model.time(i, job);
  };
  const auto fits = [&](int i, int job) {
    return (blocked[static_cast<std::size_t>(i)] & bit(job)) == 0 && slack(i, job) >= 0;
  };
  const auto rank = [&](int fit_count, int job) {
    return std::make_tuple(fit_count, -size[static_cast<std::size_t>(job)], -g.degree(job));
  };

  bool stuck = false;
  for (int placed = 0; placed < n && !stuck; ++placed) {
    int job = -1;
    int job_fits = 0;
    for (int j = 0; j < n && !stuck; ++j) {
      if (current.machine_of[static_cast<std::size_t>(j)] >= 0) continue;
      int fit_count = 0;
      for (int i = 0; i < m; ++i) fit_count += fits(i, j) ? 1 : 0;
      if (job < 0 || rank(fit_count, j) < rank(job_fits, job)) {
        job = j;
        job_fits = fit_count;
      }
      stuck = fit_count == 0;
    }
    if (stuck) break;
    int pick = -1;
    for (int i = 0; i < m; ++i) {
      if (fits(i, job) && (pick < 0 || slack(i, job) > slack(pick, job))) pick = i;
    }
    current.machine_of[static_cast<std::size_t>(job)] = pick;
    loads[static_cast<std::size_t>(pick)] += model.time(pick, job);
    blocked[static_cast<std::size_t>(pick)] |= adjacency[static_cast<std::size_t>(job)];
  }
  if (!stuck) return true;
  std::fill(current.machine_of.begin(), current.machine_of.end(), -1);
  std::fill(loads.begin(), loads.end(), 0);
  std::fill(blocked.begin(), blocked.end(), 0);
  return false;
}

// DFS over jobs, assigning machines under the independence constraint. See
// exact_bb.hpp for the pruning rules.
template <typename Model>
typename Model::Result branch_and_bound(const Model& model, std::uint64_t max_nodes,
                                        std::chrono::steady_clock::time_point deadline) {
  using Value = typename Model::Value;
  const Graph& g = model.inst.conflicts;
  const int n = model.inst.num_jobs();
  const int m = model.inst.num_machines();
  BISCHED_CHECK(n <= 64, "exact B&B oracle sized for n <= 64");

  typename Model::Result best;
  if (Schedule seeded; model.seed(seeded)) {
    best.feasible = true;
    best.cmax = makespan(model.inst, seeded);
    best.schedule = std::move(seeded);
  }
  const Value bound = model.lower_bound(best.feasible ? &best.cmax : nullptr);
  if (best.feasible && !(bound < best.cmax)) return best;

  // Isolated jobs last (any leftover capacity takes them), then the seed's
  // largest-first, most-conflicted-first order; twins end up adjacent.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::int64_t> size(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) size[static_cast<std::size_t>(j)] = model.min_time(j);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto key = [&](int j) {
      return std::make_tuple(g.degree(j) == 0, -size[static_cast<std::size_t>(j)], -g.degree(j),
                             twin_class(g, j), j);
    };
    return key(a) < key(b);
  });
  // follows_twin[d]: order[d] is interchangeable with order[d-1], so it takes
  // a machine index >= its predecessor's.
  std::vector<char> follows_twin(static_cast<std::size_t>(n), 0);
  for (int d = 1; d < n; ++d) {
    const int a = order[static_cast<std::size_t>(d - 1)];
    const int b = order[static_cast<std::size_t>(d)];
    follows_twin[static_cast<std::size_t>(d)] =
        twin_class(g, a) >= 0 && twin_class(g, a) == twin_class(g, b) && model.same_times(a, b);
  }
  std::vector<char> same_as_previous(static_cast<std::size_t>(m), 0);
  for (int i = 1; i < m; ++i) {
    same_as_previous[static_cast<std::size_t>(i)] = model.same_machine(i - 1, i);
  }
  // remaining[d]: the least total load the jobs order[d..] add anywhere;
  // unplaced[d]: those jobs as a mask.
  std::vector<std::int64_t> remaining(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint64_t> unplaced(static_cast<std::size_t>(n) + 1, 0);
  for (int d = n - 1; d >= 0; --d) {
    const int job = order[static_cast<std::size_t>(d)];
    remaining[static_cast<std::size_t>(d)] = saturate(
        static_cast<i128>(remaining[static_cast<std::size_t>(d) + 1]) +
        size[static_cast<std::size_t>(job)]);
    unplaced[static_cast<std::size_t>(d)] =
        unplaced[static_cast<std::size_t>(d) + 1] | bit(job);
  }

  Schedule current;
  current.machine_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> loads(static_cast<std::size_t>(m), 0);
  std::vector<int> jobs_on(static_cast<std::size_t>(m), 0);
  i128 placed = 0;
  const std::vector<std::uint64_t> adjacency = adjacency_masks(g);
  std::vector<std::uint64_t> blocked(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> cap(static_cast<std::size_t>(m));
  auto loads_makespan = [&] {
    Value cmax = model.finish(loads[0], 0);
    for (int i = 1; i < m; ++i) {
      cmax = std::max(cmax, model.finish(loads[static_cast<std::size_t>(i)], i));
    }
    return cmax;
  };

  // A schedule at the bound is optimal: no search needed.
  if (fill_at_bound(model, bound, size, cap, current, loads, adjacency, blocked)) {
    best.feasible = true;
    best.cmax = loads_makespan();
    BISCHED_CHECK(!(bound < best.cmax), "B&B fill exceeded the root bound");
    BISCHED_DCHECK(validate(model.inst, current) == ScheduleStatus::kValid,
                   "B&B fill produced an invalid schedule");
    best.schedule = std::move(current);
    return best;
  }

  i128 cap_sum = 0;
  auto tighten = [&] {
    cap_sum = 0;
    for (int i = 0; i < m; ++i) {
      cap[static_cast<std::size_t>(i)] = model.cap(best.cmax, i);
      cap_sum += cap[static_cast<std::size_t>(i)];
    }
  };
  std::fill(cap.begin(), cap.end(), kNoCap);
  if (best.feasible) tighten();
  std::uint64_t nodes = 0;
  bool aborted = false;
  bool stop = false;
  std::optional<IndependentSetCut> cut;

  auto dfs = [&](auto&& self, int depth) -> void {
    ++nodes;
    if (max_nodes != 0 && nodes > max_nodes) {
      aborted = stop = true;
      return;
    }
    if ((nodes & kDeadlinePollMask) == 0) {
      // The first poll also engages the cut: a search that ends sooner never
      // builds it (run from the root, it makes small searches that need no
      // cut ~40% slower; docs/perf.md).
      if (!cut) cut.emplace(adjacency, size);
      if (past_deadline(deadline)) {
        aborted = stop = true;
        return;
      }
    }
    // Stale subtree: a leaf found below an ancestor may have tightened the
    // caps under loads that ancestor already placed.
    for (int i = 0; i < m; ++i) {
      if (loads[static_cast<std::size_t>(i)] > cap[static_cast<std::size_t>(i)]) return;
    }
    if (depth == n) {  // every machine is under its cap: a strict improvement
      best.feasible = true;
      best.schedule = current;
      best.cmax = loads_makespan();
      tighten();
      stop = !(bound < best.cmax);
      return;
    }
    if (best.feasible) {
      const i128 excess = cap_sum - placed - remaining[static_cast<std::size_t>(depth)];
      if (excess < 0) return;
      if (cut && cut->cuts(unplaced[static_cast<std::size_t>(depth)], blocked, loads, cap, excess)) {
        return;
      }
    }
    const int job = order[static_cast<std::size_t>(depth)];
    const int first = follows_twin[static_cast<std::size_t>(depth)]
                          ? current.machine_of[static_cast<std::size_t>(
                                order[static_cast<std::size_t>(depth - 1)])]
                          : 0;
    for (int i = first; i < m && !stop; ++i) {
      const auto mi = static_cast<std::size_t>(i);
      // Symmetry: among empty interchangeable machines, only the first.
      if (jobs_on[mi] == 0 && i > 0 && jobs_on[mi - 1] == 0 && same_as_previous[mi]) continue;
      if ((blocked[mi] & bit(job)) != 0) continue;
      const std::int64_t t = model.time(i, job);
      if (t > cap[mi] - loads[mi]) continue;
      loads[mi] += t;
      placed += t;
      ++jobs_on[mi];
      current.machine_of[static_cast<std::size_t>(job)] = i;
      const std::uint64_t was_blocked = blocked[mi];
      blocked[mi] |= adjacency[static_cast<std::size_t>(job)];
      self(self, depth + 1);
      blocked[mi] = was_blocked;
      current.machine_of[static_cast<std::size_t>(job)] = -1;
      --jobs_on[mi];
      placed -= t;
      loads[mi] -= t;
    }
  };
  dfs(dfs, 0);
  best.nodes = nodes;
  best.truncated = aborted;
  best.aborted = aborted && !best.feasible;
  if (best.feasible) {
    BISCHED_DCHECK(validate(model.inst, best.schedule) == ScheduleStatus::kValid,
                   "B&B produced an invalid schedule");
  }
  return best;
}

}  // namespace

ExactUniformResult exact_uniform_bb(const UniformInstance& inst, std::uint64_t max_nodes,
                                    std::chrono::steady_clock::time_point deadline) {
  return branch_and_bound(UniformModel{inst}, max_nodes, deadline);
}

ExactUnrelatedResult exact_unrelated_bb(const UnrelatedInstance& inst,
                                        std::uint64_t max_nodes,
                                        std::chrono::steady_clock::time_point deadline) {
  return branch_and_bound(UnrelatedModel{inst}, max_nodes, deadline);
}

}  // namespace bisched
