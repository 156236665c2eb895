// Pre-optimization reference kernels, verbatim from the seed tree.
//
// The shipped exact R2 DP (in-place pull form over the reachable window,
// SIMD row kernels — src/sched/makespan_solvers.cpp) and Dinic (CSR
// adjacency, ring-buffer BFS — src/graph/maxflow.cpp) promise results
// *bit-identical* to these: same makespans, same assignments, same residual
// graphs and min-cut sides. The differential tests
// (tests/sched/kernel_differential_test.cpp, tests/graph/maxflow_test.cpp)
// compare the library against this header on randomized instances, and
// bench/bench_hotpaths.cpp times the library against it. The seed exact
// branch-and-bound (core/exact_bb) is kept for a weaker contract: the
// shipped search must agree on feasibility and on the optimal makespan, not
// on which optimal schedule it returns. The seed r2_fptas binary-searches the
// makespan while the shipped one scales once from the lower bound, so the
// two answer differently; the seed version is only bench_hotpaths' timing
// baseline, and the shipped one is held to its (1+eps) guarantee.
// Deliberately unoptimized — do not "fix" or speed these up; their value is
// being the old behavior.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <vector>

#include "core/exact_bb.hpp"
#include "sched/makespan_solvers.hpp"
#include "util/check.hpp"

namespace bisched::reference {

using i64 = std::int64_t;
inline constexpr i64 kInf = std::numeric_limits<i64>::max() / 4;

// ---- seed R2 kernel --------------------------------------------------------

class ChoiceBits {
 public:
  ChoiceBits(std::size_t rows, std::size_t cols)
      : words_((cols + 63) / 64), data_(rows * words_, 0) {}

  void set(std::size_t r, std::size_t c, bool bit) {
    auto& word = data_[r * words_ + c / 64];
    const std::uint64_t mask = 1ULL << (c % 64);
    word = bit ? (word | mask) : (word & ~mask);
  }
  bool get(std::size_t r, std::size_t c) const {
    return (data_[r * words_ + c / 64] >> (c % 64)) & 1ULL;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> data_;
};

inline R2Result finalize(std::span<const R2Job> jobs, std::vector<std::uint8_t> on_m2) {
  R2Result r;
  r.on_machine2 = std::move(on_m2);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (r.on_machine2[j]) {
      r.load2 += jobs[j].p2;
    } else {
      r.load1 += jobs[j].p1;
    }
  }
  r.cmax = std::max(r.load1, r.load2);
  return r;
}

inline bool scaled_feasible(std::span<const i64> s1, std::span<const i64> s2,
                            i64 budget, std::vector<std::uint8_t>& on_m2) {
  BISCHED_CHECK(budget >= 0, "negative DP budget");
  const std::size_t n = s1.size();
  const auto width = static_cast<std::size_t>(budget) + 1;
  BISCHED_CHECK(static_cast<double>(n) * static_cast<double>(width) <= 2e9,
                "R2 DP table too large; reduce instance or raise eps");

  std::vector<i64> cur(width, kInf);
  std::vector<i64> next(width);
  cur[0] = 0;
  ChoiceBits choice(n, width);

  for (std::size_t j = 0; j < n; ++j) {
    std::fill(next.begin(), next.end(), kInf);
    for (std::size_t l1 = 0; l1 < width; ++l1) {
      if (cur[l1] == kInf) continue;
      const i64 via_m2 = cur[l1] + s2[j];
      if (via_m2 < next[l1]) {
        next[l1] = via_m2;
        choice.set(j, l1, false);
      }
      const std::size_t nl1 = l1 + static_cast<std::size_t>(s1[j]);
      if (nl1 < width && cur[l1] < next[nl1]) {
        next[nl1] = cur[l1];
        choice.set(j, nl1, true);
      }
    }
    cur.swap(next);
  }

  std::size_t l1 = width;
  for (std::size_t cand = 0; cand < width; ++cand) {
    if (cur[cand] <= budget) {
      l1 = cand;
      break;
    }
  }
  if (l1 == width) return false;

  on_m2.assign(n, 0);
  for (std::size_t j = n; j-- > 0;) {
    if (choice.get(j, l1)) {
      on_m2[j] = 0;
      BISCHED_CHECK(l1 >= static_cast<std::size_t>(s1[j]), "DP reconstruction failed");
      l1 -= static_cast<std::size_t>(s1[j]);
    } else {
      on_m2[j] = 1;
    }
  }
  return true;
}

inline R2Result r2_exact(std::span<const R2Job> jobs) {
  for (const auto& job : jobs) BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0, "negative time");
  const R2Result ub = bisched::r2_greedy(jobs);
  if (ub.cmax == 0) return ub;

  std::vector<i64> s1(jobs.size()), s2(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    s1[j] = jobs[j].p1;
    s2[j] = jobs[j].p2;
  }
  i64 lo = 0, hi = ub.cmax;
  std::vector<std::uint8_t> best_assignment = ub.on_machine2;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    std::vector<std::uint8_t> on_m2;
    if (scaled_feasible(s1, s2, mid, on_m2)) {
      hi = mid;
      best_assignment = std::move(on_m2);
    } else {
      lo = mid + 1;
    }
  }
  R2Result r = finalize(jobs, std::move(best_assignment));
  BISCHED_CHECK(r.cmax == lo, "exact DP produced inconsistent optimum");
  return r;
}

inline R2Result r2_fptas(std::span<const R2Job> jobs, double eps) {
  BISCHED_CHECK(eps > 0, "eps must be positive");
  for (const auto& job : jobs) BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0, "negative time");
  const R2Result greedy = bisched::r2_greedy(jobs);
  if (greedy.cmax == 0 || jobs.empty()) return greedy;

  const auto n = static_cast<i64>(jobs.size());
  i64 lb = 1;
  i64 sum_min = 0;
  for (const auto& job : jobs) {
    lb = std::max(lb, std::min(job.p1, job.p2));
    sum_min += std::min(job.p1, job.p2);
  }
  lb = std::max(lb, (sum_min + 1) / 2);

  auto feasible = [&](i64 t, std::vector<std::uint8_t>* out) {
    const i64 delta = std::max<i64>(
        1, static_cast<i64>(eps * static_cast<double>(t) / static_cast<double>(n)));
    const i64 budget = t / delta;
    std::vector<i64> s1(jobs.size()), s2(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      s1[j] = jobs[j].p1 / delta;
      s2[j] = jobs[j].p2 / delta;
    }
    std::vector<std::uint8_t> on_m2;
    if (!scaled_feasible(s1, s2, budget, on_m2)) return false;
    if (out != nullptr) *out = std::move(on_m2);
    return true;
  };

  i64 lo = std::min(lb, greedy.cmax), hi = greedy.cmax;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (feasible(mid, nullptr)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<std::uint8_t> on_m2;
  const bool ok = feasible(lo, &on_m2);
  BISCHED_CHECK(ok, "FPTAS terminal feasibility check failed");
  return finalize(jobs, std::move(on_m2));
}

// ---- seed Dinic (intrusive adjacency lists + std::queue BFS) ---------------

class Dinic {
 public:
  static constexpr std::int64_t kCapInfinity = INT64_MAX / 4;

  explicit Dinic(int num_nodes)
      : head_(static_cast<std::size_t>(num_nodes), -1),
        level_(static_cast<std::size_t>(num_nodes), -1),
        iter_(static_cast<std::size_t>(num_nodes), -1) {
    BISCHED_CHECK(num_nodes >= 0, "negative node count");
  }

  int num_nodes() const { return static_cast<int>(head_.size()); }

  int add_edge(int u, int v, std::int64_t capacity) {
    BISCHED_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes(),
                  "flow edge endpoint out of range");
    BISCHED_CHECK(capacity >= 0, "negative capacity");
    const int id = static_cast<int>(edges_.size());
    edges_.push_back({v, head_[static_cast<std::size_t>(u)], capacity});
    head_[static_cast<std::size_t>(u)] = id;
    edges_.push_back({u, head_[static_cast<std::size_t>(v)], 0});
    head_[static_cast<std::size_t>(v)] = id + 1;
    return id;
  }

  std::int64_t max_flow(int s, int t) {
    BISCHED_CHECK(s != t, "source equals sink");
    std::int64_t flow = 0;
    while (bfs(s, t)) {
      iter_ = head_;
      flow += dfs(s, t, kCapInfinity);
    }
    return flow;
  }

  std::int64_t flow_on(int id) const {
    BISCHED_CHECK(id >= 0 && id + 1 < static_cast<int>(edges_.size()), "bad edge id");
    return edges_[static_cast<std::size_t>(id ^ 1)].cap;
  }

  std::vector<std::uint8_t> min_cut_source_side(int s) const {
    std::vector<std::uint8_t> reachable(head_.size(), 0);
    std::queue<int> queue;
    reachable[static_cast<std::size_t>(s)] = 1;
    queue.push(s);
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop();
      for (int e = head_[static_cast<std::size_t>(u)]; e != -1;
           e = edges_[static_cast<std::size_t>(e)].next) {
        const auto& edge = edges_[static_cast<std::size_t>(e)];
        if (edge.cap > 0 && !reachable[static_cast<std::size_t>(edge.to)]) {
          reachable[static_cast<std::size_t>(edge.to)] = 1;
          queue.push(edge.to);
        }
      }
    }
    return reachable;
  }

 private:
  struct Edge {
    int to;
    int next;
    std::int64_t cap;
  };

  bool bfs(int s, int t) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<int> queue;
    level_[static_cast<std::size_t>(s)] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop();
      for (int e = head_[static_cast<std::size_t>(u)]; e != -1;
           e = edges_[static_cast<std::size_t>(e)].next) {
        const auto& edge = edges_[static_cast<std::size_t>(e)];
        if (edge.cap > 0 && level_[static_cast<std::size_t>(edge.to)] == -1) {
          level_[static_cast<std::size_t>(edge.to)] =
              level_[static_cast<std::size_t>(u)] + 1;
          queue.push(edge.to);
        }
      }
    }
    return level_[static_cast<std::size_t>(t)] != -1;
  }

  std::int64_t dfs(int u, int t, std::int64_t limit) {
    if (u == t) return limit;
    std::int64_t pushed_total = 0;
    for (int& e = iter_[static_cast<std::size_t>(u)]; e != -1;
         e = edges_[static_cast<std::size_t>(e)].next) {
      auto& edge = edges_[static_cast<std::size_t>(e)];
      if (edge.cap <= 0 ||
          level_[static_cast<std::size_t>(edge.to)] !=
              level_[static_cast<std::size_t>(u)] + 1) {
        continue;
      }
      const std::int64_t pushed = dfs(edge.to, t, std::min(limit, edge.cap));
      if (pushed == 0) continue;
      edge.cap -= pushed;
      edges_[static_cast<std::size_t>(e ^ 1)].cap += pushed;
      pushed_total += pushed;
      limit -= pushed;
      if (limit == 0) break;
    }
    if (pushed_total == 0) level_[static_cast<std::size_t>(u)] = -1;
    return pushed_total;
  }

  std::vector<Edge> edges_;
  std::vector<int> head_;
  std::vector<int> level_;
  std::vector<int> iter_;
};

// ---- seed exact branch-and-bound (plain DFS, partial-makespan pruning) ----
//
// The uncapped DFS the shipped src/core/exact_bb.cpp replaced: no seeded
// incumbent, no root bound, no capacity-slack or twin pruning. Its optimal
// makespans and feasibility verdicts are the ground truth for
// tests/core/exact_bb_test.cpp and the "before" side of bench_hotpaths' exact_bb
// rows.

// Deadline polling cadence: steady_clock::now() costs ~20ns, a DFS node a
// few ns, so checking every 4096 nodes keeps the overhead under 1% while
// bounding deadline overshoot to microseconds.
inline constexpr std::uint64_t kDeadlinePollMask = 4095;

inline bool past_deadline(std::uint64_t nodes, std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         (nodes & kDeadlinePollMask) == 0 && std::chrono::steady_clock::now() >= deadline;
}

inline std::vector<int> job_order_by_size(const std::vector<std::int64_t>& size, const Graph& g) {
  std::vector<int> order(size.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (size[static_cast<std::size_t>(a)] != size[static_cast<std::size_t>(b)]) {
      return size[static_cast<std::size_t>(a)] > size[static_cast<std::size_t>(b)];
    }
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return order;
}

// Shared DFS state: conflict counters let O(deg) feasibility checks replace
// O(jobs-on-machine) scans.
class ConflictTracker {
 public:
  ConflictTracker(const Graph& g, int m, int n)
      : graph_(g), n_(n), blocked_(static_cast<std::size_t>(m) * static_cast<std::size_t>(n), 0) {}

  bool allowed(int machine, int job) const {
    return blocked_[index(machine, job)] == 0;
  }
  void place(int machine, int job) {
    for (int v : graph_.neighbors(job)) ++blocked_[index(machine, v)];
  }
  void remove(int machine, int job) {
    for (int v : graph_.neighbors(job)) --blocked_[index(machine, v)];
  }

 private:
  std::size_t index(int machine, int job) const {
    return static_cast<std::size_t>(machine) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(job);
  }
  const Graph& graph_;
  int n_;
  std::vector<int> blocked_;
};

inline ExactUniformResult exact_uniform_bb(const UniformInstance& inst, std::uint64_t max_nodes,
                                           std::chrono::steady_clock::time_point deadline) {
  const int n = inst.num_jobs();
  const int m = inst.num_machines();
  BISCHED_CHECK(n <= 64, "exact B&B oracle sized for n <= 64");

  const std::vector<int> order = job_order_by_size(inst.p, inst.conflicts);

  ExactUniformResult best;
  Schedule current;
  current.machine_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> loads(static_cast<std::size_t>(m), 0);
  ConflictTracker conflicts(inst.conflicts, m, n);
  std::uint64_t nodes = 0;
  bool aborted = false;

  auto dfs = [&](auto&& self, int depth, const Rational& cmax_so_far) -> void {
    if (aborted) return;
    ++nodes;
    if ((max_nodes != 0 && nodes > max_nodes) || past_deadline(nodes, deadline)) {
      aborted = true;
      return;
    }
    if (best.feasible && !(cmax_so_far < best.cmax)) return;
    if (depth == n) {
      best.feasible = true;
      best.schedule = current;
      best.cmax = cmax_so_far;
      return;
    }
    const int job = order[static_cast<std::size_t>(depth)];
    for (int i = 0; i < m; ++i) {
      // Symmetry: among empty machines of equal speed, only the first.
      if (loads[static_cast<std::size_t>(i)] == 0 && i > 0 &&
          loads[static_cast<std::size_t>(i - 1)] == 0 &&
          inst.speeds[static_cast<std::size_t>(i)] == inst.speeds[static_cast<std::size_t>(i - 1)]) {
        continue;
      }
      if (!conflicts.allowed(i, job)) continue;
      const std::int64_t pj = inst.p[static_cast<std::size_t>(job)];
      loads[static_cast<std::size_t>(i)] += pj;
      current.machine_of[static_cast<std::size_t>(job)] = i;
      conflicts.place(i, job);
      const Rational finish(loads[static_cast<std::size_t>(i)],
                            inst.speeds[static_cast<std::size_t>(i)]);
      self(self, depth + 1, rat_max(cmax_so_far, finish));
      conflicts.remove(i, job);
      current.machine_of[static_cast<std::size_t>(job)] = -1;
      loads[static_cast<std::size_t>(i)] -= pj;
    }
  };
  dfs(dfs, 0, Rational(0));
  best.nodes = nodes;  // the one line added to the seed: its node count
  best.truncated = aborted;
  best.aborted = aborted && !best.feasible;
  if (best.feasible) {
    BISCHED_DCHECK(validate(inst, best.schedule) == ScheduleStatus::kValid,
                   "B&B produced an invalid schedule");
  }
  return best;
}

inline ExactUnrelatedResult exact_unrelated_bb(const UnrelatedInstance& inst,
                                               std::uint64_t max_nodes,
                                               std::chrono::steady_clock::time_point deadline) {
  const int n = inst.num_jobs();
  const int m = inst.num_machines();
  BISCHED_CHECK(n <= 64, "exact B&B oracle sized for n <= 64");

  std::vector<std::int64_t> min_time(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    std::int64_t mt = INT64_MAX;
    for (int i = 0; i < m; ++i) {
      mt = std::min(mt, inst.times[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
    min_time[static_cast<std::size_t>(j)] = mt;
  }
  const std::vector<int> order = job_order_by_size(min_time, inst.conflicts);

  ExactUnrelatedResult best;
  Schedule current;
  current.machine_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> loads(static_cast<std::size_t>(m), 0);
  ConflictTracker conflicts(inst.conflicts, m, n);
  std::uint64_t nodes = 0;
  bool aborted = false;

  auto dfs = [&](auto&& self, int depth, std::int64_t cmax_so_far) -> void {
    if (aborted) return;
    ++nodes;
    if ((max_nodes != 0 && nodes > max_nodes) || past_deadline(nodes, deadline)) {
      aborted = true;
      return;
    }
    if (best.feasible && cmax_so_far >= best.cmax) return;
    if (depth == n) {
      best.feasible = true;
      best.schedule = current;
      best.cmax = cmax_so_far;
      return;
    }
    const int job = order[static_cast<std::size_t>(depth)];
    for (int i = 0; i < m; ++i) {
      if (!conflicts.allowed(i, job)) continue;
      const std::int64_t t =
          inst.times[static_cast<std::size_t>(i)][static_cast<std::size_t>(job)];
      loads[static_cast<std::size_t>(i)] += t;
      current.machine_of[static_cast<std::size_t>(job)] = i;
      conflicts.place(i, job);
      self(self, depth + 1, std::max(cmax_so_far, loads[static_cast<std::size_t>(i)]));
      conflicts.remove(i, job);
      current.machine_of[static_cast<std::size_t>(job)] = -1;
      loads[static_cast<std::size_t>(i)] -= t;
    }
  };
  dfs(dfs, 0, 0);
  best.nodes = nodes;  // the one line added to the seed: its node count
  best.truncated = aborted;
  best.aborted = aborted && !best.feasible;
  if (best.feasible) {
    BISCHED_DCHECK(validate(inst, best.schedule) == ScheduleStatus::kValid,
                   "B&B produced an invalid schedule");
  }
  return best;
}

}  // namespace bisched::reference
