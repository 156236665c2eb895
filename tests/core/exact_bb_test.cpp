#include "core/exact_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "reference_kernels.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/makespan_solvers.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

TEST(ExactUniform, KnownOptimum) {
  // Two conflicting jobs, speeds (2,1): put the bigger on the fast machine.
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_uniform_instance({6, 2}, {2, 1}, std::move(g));
  const auto r = exact_uniform_bb(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cmax, Rational(3));  // 6/2 on M1, 2/1 on M2
}

TEST(ExactUniform, InfeasibleWhenColorsExceedMachines) {
  // K_{1,1} needs 2 machines.
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_uniform_instance({1, 1}, {5}, std::move(g));
  const auto r = exact_uniform_bb(inst);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.aborted);
}

TEST(ExactUniform, MatchesFullEnumeration) {
  Rng rng(55);
  for (int iter = 0; iter < 30; ++iter) {
    const auto inst = testing::random_uniform_instance(
        1 + static_cast<int>(rng.uniform_int(0, 2)), 1 + static_cast<int>(rng.uniform_int(0, 2)),
        2 + static_cast<int>(rng.uniform_int(0, 1)), 7, 3, rng);
    const int n = inst.num_jobs();
    const int m = inst.num_machines();
    // Full enumeration without any pruning/symmetry, as ground truth.
    Rational best(-1);
    std::vector<int> assign(static_cast<std::size_t>(n), 0);
    for (;;) {
      Schedule s{assign};
      if (validate(inst, s) == ScheduleStatus::kValid) {
        const Rational cm = makespan(inst, s);
        if (best < Rational(0) || cm < best) best = cm;
      }
      int pos = n - 1;
      while (pos >= 0 && assign[static_cast<std::size_t>(pos)] == m - 1) {
        assign[static_cast<std::size_t>(pos)] = 0;
        --pos;
      }
      if (pos < 0) break;
      ++assign[static_cast<std::size_t>(pos)];
    }
    const auto r = exact_uniform_bb(inst);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.cmax, best);
  }
}

TEST(ExactUniform, NodeLimitReportsAborted) {
  Rng rng(66);
  const auto inst = testing::random_uniform_instance(6, 6, 4, 9, 3, rng);
  const auto r = exact_uniform_bb(inst, /*max_nodes=*/2);
  EXPECT_TRUE(r.aborted || r.feasible);
  if (r.aborted) {
    EXPECT_FALSE(r.feasible);
  }
}

TEST(ExactUnrelated, KnownOptimum) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_unrelated_instance({{4, 9}, {7, 3}}, std::move(g));
  const auto r = exact_unrelated_bb(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cmax, 4);  // job0 -> M1 (4), job1 -> M2 (3)
}

TEST(ExactUnrelated, MatchesBruteForceWithoutConflicts) {
  Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 7));
    const int m = 2 + static_cast<int>(rng.uniform_int(0, 1));
    std::vector<std::vector<std::int64_t>> times(
        static_cast<std::size_t>(m), std::vector<std::int64_t>(static_cast<std::size_t>(n)));
    for (auto& row : times) {
      for (auto& t : row) t = rng.uniform_int(0, 12);
    }
    const auto inst = make_unrelated_instance(times, Graph(n));
    const auto r = exact_unrelated_bb(inst);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.cmax, rm_bruteforce_makespan(times));
  }
}

TEST(ExactUnrelated, ConflictsRaiseOptimum) {
  // Without the conflict, both jobs would take machine 1 (cost 1+1).
  Graph g(2);
  g.add_edge(0, 1);
  const auto with_conflict =
      make_unrelated_instance({{1, 1}, {10, 10}}, std::move(g));
  const auto r = exact_unrelated_bb(with_conflict);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cmax, 10);
  const auto no_conflict = make_unrelated_instance({{1, 1}, {10, 10}}, Graph(2));
  const auto r2 = exact_unrelated_bb(no_conflict);
  ASSERT_TRUE(r2.feasible);
  EXPECT_EQ(r2.cmax, 2);
}

TEST(ExactUniform, SymmetryBreakingPreservesOptimum) {
  // Many equal machines: symmetry pruning must not lose the optimum.
  const auto inst =
      make_uniform_instance({4, 3, 2, 1}, {1, 1, 1, 1}, complete_bipartite(2, 2));
  const auto r = exact_uniform_bb(inst);
  ASSERT_TRUE(r.feasible);
  // Sides {0,1} and {2,3}: machine sets must separate sides; best split:
  // {4},{3},{2,1} -> 4... or {4},{3},{2},{1} -> 4.
  EXPECT_EQ(r.cmax, Rational(4));
}


TEST(ExactUniform, StaleSubtreeCutKeepsTheSearchSmall) {
  // Weighted jobs on a Gilbert G(16,16,3/16) graph, 4 machines: leaves found
  // deep in the search tighten the caps below loads placed near the root.
  // Cutting those stale subtrees on node entry proves the optimum in 2 006
  // nodes; without the cut the same search visits 1 694 692 (the answer
  // stays optimal, so only the node count shows the difference).
  Rng rng(derive_seed(11, 261));
  const int side = 6 + static_cast<int>(rng.uniform_int(0, 10));
  ASSERT_EQ(side, 16);
  std::vector<std::int64_t> speeds(4);
  for (auto& s : speeds) s = rng.uniform_int(1, 8);
  std::vector<std::int64_t> p(2 * static_cast<std::size_t>(side));
  const std::int64_t wmax = rng.uniform_int(1, 6);
  for (auto& x : p) x = rng.uniform_int(1, wmax);
  const auto inst = make_uniform_instance(std::move(p), std::move(speeds),
                                          gilbert_bipartite(side, p_critical(3.0, side), rng));
  const auto r = exact_uniform_bb(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.truncated);
  EXPECT_LT(r.nodes, 20'000u);
}

TEST(ExactUniform, FillClosesADrawTheSearchCannotFinish) {
  // A draw of perfbench cold-mix's small-uniform shape: 64 unit jobs on a
  // Gilbert G(32,32,2/32) graph, speeds (2,3,8,2), root bound 35/8. The DFS
  // alone spends the engine's 20M-node budget and stops at makespan 5. The
  // capacitated DSATUR pass places every job within floor(35/8 * s_i), which
  // sums to exactly 64, so the bound is met without a node.
  Rng rng(derive_seed(3, 10));
  const int side = 16 + static_cast<int>(rng.uniform_int(0, 16));
  ASSERT_EQ(side, 32);
  std::vector<std::int64_t> speeds(4);
  for (auto& s : speeds) s = rng.uniform_int(1, 8);
  const auto inst =
      make_uniform_instance(std::vector<std::int64_t>(2 * static_cast<std::size_t>(side), 1),
                            std::move(speeds), gilbert_bipartite(side, p_critical(2.0, side), rng));
  ASSERT_EQ(lower_bound(inst), Rational(35, 8));
  const auto r = exact_uniform_bb(inst, /*max_nodes=*/20'000'000);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.nodes, 0u);
  EXPECT_EQ(r.cmax, lower_bound(inst));
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid);
  EXPECT_EQ(makespan(inst, r.schedule), r.cmax);
}

TEST(ExactUniform, IndependentSetCutClosesDrawsTheFillMisses) {
  // Two more cold-mix small-uniform draws: 60 unit jobs on speeds (2,1,7,1)
  // with root bound 6, and 40 on speeds (2,3,8,1) with root bound 3. The fill
  // stops short on both, and without the independent-set cut the DFS spends
  // the engine's 20M-node budget and stops at makespans 7 and 10/3. With it
  // the search proves the bound in about 4 300 nodes: the fast machine must
  // take an independent set larger than the unplaced jobs it may still hold.
  struct Draw {
    std::uint64_t stream;
    int side;
    Rational bound;
  };
  for (const Draw& draw : {Draw{94, 30, Rational(6)}, Draw{125, 20, Rational(3)}}) {
    Rng rng(derive_seed(3, draw.stream));
    const int side = 16 + static_cast<int>(rng.uniform_int(0, 16));
    ASSERT_EQ(side, draw.side);
    std::vector<std::int64_t> speeds(4);
    for (auto& s : speeds) s = rng.uniform_int(1, 8);
    const auto inst = make_uniform_instance(
        std::vector<std::int64_t>(2 * static_cast<std::size_t>(side), 1), std::move(speeds),
        gilbert_bipartite(side, p_critical(2.0, side), rng));
    ASSERT_EQ(lower_bound(inst), draw.bound);
    const auto r = exact_uniform_bb(inst, /*max_nodes=*/20'000'000);
    ASSERT_TRUE(r.feasible) << "draw " << draw.stream;
    EXPECT_FALSE(r.truncated) << "draw " << draw.stream;
    EXPECT_EQ(r.cmax, draw.bound) << "draw " << draw.stream;
    EXPECT_LT(r.nodes, 100'000u) << "draw " << draw.stream;
    EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid) << "draw " << draw.stream;
    EXPECT_EQ(makespan(inst, r.schedule), r.cmax) << "draw " << draw.stream;
  }
}

TEST(ExactUnrelated, FillMeetsTheBoundTheSeedMisses) {
  // Conflicting jobs 0 (3 anywhere) and 1 (2 on M1, 100 on M2); root bound
  // max(3, ceil(5/2)) = 3. Earliest completion places the larger job 0
  // first, on M1, which leaves job 1 only M2: makespan 100. The fill places
  // job 1 first, as it fits one machine within capacity 3, and meets the
  // bound: job 1 on M1, job 0 on M2.
  Graph g(2);
  g.add_edge(0, 1);
  const auto inst = make_unrelated_instance({{3, 2}, {3, 100}}, std::move(g));
  const auto r = exact_unrelated_bb(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.nodes, 0u);
  EXPECT_EQ(r.cmax, 3);
  EXPECT_EQ(r.schedule.machine_of, (std::vector<int>{1, 0}));
}

// ---- differential check against the seed search ----------------------------
//
// The shipped search prunes with a seeded incumbent, a root lower bound,
// integer capacities, the remaining-work slack and twin symmetry; the seed
// DFS in tests/reference_kernels.hpp has none of them. Both run unlimited on
// seeded random instances and must agree on feasibility and the optimal
// makespan (the schedules themselves may differ between optima).

enum class GraphKind { kBipartite, kGeneral, kIsolatedHeavy, kLeafHeavy, kDense };
constexpr GraphKind kGraphKinds[] = {GraphKind::kBipartite, GraphKind::kGeneral,
                                     GraphKind::kIsolatedHeavy, GraphKind::kLeafHeavy,
                                     GraphKind::kDense};

void add_edge_once(Graph& g, int u, int v) {
  if (u != v && !g.has_edge(u, v)) g.add_edge(u, v);
}

Graph random_graph(int n, GraphKind kind, Rng& rng) {
  Graph g(n);
  switch (kind) {
    case GraphKind::kBipartite: {  // sides [0, a) and [a, n)
      const int a = static_cast<int>(rng.uniform_int(0, n));
      const double q = rng.uniform_real01() * 0.6;
      for (int u = 0; u < a; ++u) {
        for (int v = a; v < n; ++v) {
          if (rng.bernoulli(q)) add_edge_once(g, u, v);
        }
      }
      break;
    }
    case GraphKind::kGeneral:
    case GraphKind::kDense: {  // odd cycles likely; dense ones often infeasible
      const double q = kind == GraphKind::kDense ? 0.5 + 0.4 * rng.uniform_real01()
                                                 : 0.4 * rng.uniform_real01();
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if (rng.bernoulli(q)) add_edge_once(g, u, v);
        }
      }
      break;
    }
    case GraphKind::kIsolatedHeavy: {  // a small core, everything else isolated
      const int core = static_cast<int>(rng.uniform_int(0, std::min(n, 4)));
      for (int u = 0; u < core; ++u) {
        for (int v = u + 1; v < core; ++v) {
          if (rng.bernoulli(0.5)) add_edge_once(g, u, v);
        }
      }
      break;
    }
    case GraphKind::kLeafHeavy: {  // leaves on two hubs, the odd extra edge
      const int hubs = std::min(n, 2);
      for (int v = hubs; v < n; ++v) {
        if (rng.bernoulli(0.8)) add_edge_once(g, v, static_cast<int>(rng.uniform_int(0, hubs - 1)));
      }
      if (n >= 4 && rng.bernoulli(0.5)) {
        add_edge_once(g, static_cast<int>(rng.uniform_int(0, n - 1)),
                      static_cast<int>(rng.uniform_int(0, n - 1)));
      }
      break;
    }
  }
  return g;
}

std::string describe(GraphKind kind, int n, int m, int iter) {
  return "kind " + std::to_string(static_cast<int>(kind)) + " n " + std::to_string(n) +
         " m " + std::to_string(m) + " iter " + std::to_string(iter);
}

TEST(ExactUniform, MatchesSeedSearchOnRandomInstances) {
  Rng rng(20261019);
  int feasible = 0;
  int infeasible = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const GraphKind kind = kGraphKinds[iter % 5];
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(1, 4));
    // Unit, small-range (many equal-p twins) and wide-range weights.
    constexpr std::int64_t kWeightMax[] = {1, 3, 20};
    const std::int64_t wmax = kWeightMax[iter % 3];
    std::vector<std::int64_t> p(static_cast<std::size_t>(n));
    for (auto& x : p) x = rng.uniform_int(1, wmax);
    std::vector<std::int64_t> speeds(static_cast<std::size_t>(m));
    const bool equal_speeds = rng.bernoulli(0.5);
    const std::int64_t s0 = rng.uniform_int(1, 4);
    for (auto& s : speeds) s = equal_speeds ? s0 : rng.uniform_int(1, 6);
    const auto inst = make_uniform_instance(std::move(p), std::move(speeds),
                                            random_graph(n, kind, rng));
    const std::string ctx = describe(kind, n, m, iter);

    const auto seed = reference::exact_uniform_bb(inst, 0,
                                                  std::chrono::steady_clock::time_point::max());
    const auto r = exact_uniform_bb(inst);
    ASSERT_FALSE(seed.truncated) << ctx;
    EXPECT_FALSE(r.truncated) << ctx;
    EXPECT_FALSE(r.aborted) << ctx;
    ASSERT_EQ(r.feasible, seed.feasible) << ctx;
    if (!r.feasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_EQ(r.cmax, seed.cmax) << ctx;
    EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid) << ctx;
    EXPECT_EQ(makespan(inst, r.schedule), r.cmax) << ctx;
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible, 1500);
  EXPECT_GT(infeasible, 150);
}

TEST(ExactUnrelated, MatchesSeedSearchOnRandomInstances) {
  Rng rng(20261020);
  int feasible = 0;
  int infeasible = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const GraphKind kind = kGraphKinds[iter % 5];
    const int n = static_cast<int>(rng.uniform_int(1, 11));
    const int m = static_cast<int>(rng.uniform_int(1, 4));
    Graph g = random_graph(n, kind, rng);
    std::vector<std::vector<std::int64_t>> times(
        static_cast<std::size_t>(m), std::vector<std::int64_t>(static_cast<std::size_t>(n)));
    constexpr std::int64_t kTimeMax[] = {1, 4, 15};
    const std::int64_t tmax = kTimeMax[iter % 3];
    for (auto& row : times) {
      for (auto& t : row) t = rng.uniform_int(0, tmax);
    }
    // Twin-heavy kinds get identical time columns for vertices with the same
    // neighborhood shape (isolated, or a leaf of vertex 0), so the twin rule
    // fires; other machines sometimes repeat machine 0's row.
    if (kind == GraphKind::kIsolatedHeavy || kind == GraphKind::kLeafHeavy) {
      int isolated_rep = -1;
      int leaf_rep = -1;
      for (int j = 0; j < n; ++j) {
        int* rep = nullptr;
        if (g.degree(j) == 0) rep = &isolated_rep;
        if (g.degree(j) == 1 && g.neighbors(j)[0] == 0) rep = &leaf_rep;
        if (rep == nullptr || !rng.bernoulli(0.7)) continue;
        if (*rep < 0) {
          *rep = j;
          continue;
        }
        for (auto& row : times) {
          row[static_cast<std::size_t>(j)] = row[static_cast<std::size_t>(*rep)];
        }
      }
    }
    for (int i = 1; i < m; ++i) {
      if (rng.bernoulli(0.3)) times[static_cast<std::size_t>(i)] = times[0];
    }
    const auto inst = make_unrelated_instance(std::move(times), std::move(g));
    const std::string ctx = describe(kind, n, m, iter);

    const auto seed = reference::exact_unrelated_bb(inst, 0,
                                                    std::chrono::steady_clock::time_point::max());
    const auto r = exact_unrelated_bb(inst);
    ASSERT_FALSE(seed.truncated) << ctx;
    EXPECT_FALSE(r.truncated) << ctx;
    EXPECT_FALSE(r.aborted) << ctx;
    ASSERT_EQ(r.feasible, seed.feasible) << ctx;
    if (!r.feasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_EQ(r.cmax, seed.cmax) << ctx;
    EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid) << ctx;
    EXPECT_EQ(makespan(inst, r.schedule), r.cmax) << ctx;
  }
  EXPECT_GT(feasible, 1500);
  EXPECT_GT(infeasible, 150);
}

// ---- differential check where the independent-set cut engages --------------
//
// The cut engages at the search's first deadline poll (node 4096); the random
// instances above all finish before it. Even times on 14-18 jobs and three
// machines keep the shipped search past that node on about one draw in ten
// (no bound it uses sees that every load is even) while the seed search still
// finishes in milliseconds. Half the draws are unit (every time 2), half weighted (2 or
// 4); a quarter of the graphs are not bipartite, where the cut's 2-layering
// ignores the edges inside a layer. Even loads never fill a machine to an odd
// cap exactly, so these families cannot tell a cut that asks one unit too much
// from a correct one; the mixed-parity families below can (one odd time, or
// times of both parities), and a cut off by one unit fails them.

constexpr std::uint64_t kCutEngagesAfter = 4096;

Graph engaging_graph(int side, int iter, Rng& rng) {
  return iter % 4 == 3 ? random_graph(2 * side, GraphKind::kGeneral, rng)
                       : gilbert_bipartite(side, p_critical(2.0, side), rng);
}

std::vector<std::int64_t> engaging_speeds(Rng& rng) {
  std::vector<std::int64_t> speeds(3);
  const bool equal_speeds = rng.bernoulli(0.5);
  const std::int64_t s0 = rng.uniform_int(1, 3);
  for (auto& s : speeds) s = equal_speeds ? s0 : rng.uniform_int(1, 4);
  return speeds;
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

auto both_searches(const UniformInstance& inst) {
  return std::pair(exact_uniform_bb(inst), reference::exact_uniform_bb(inst, 0, kNoDeadline));
}
auto both_searches(const UnrelatedInstance& inst) {
  return std::pair(exact_unrelated_bb(inst), reference::exact_unrelated_bb(inst, 0, kNoDeadline));
}

// Both searches, unlimited, agree on feasibility and the optimal makespan;
// true when the shipped one ran past the node where the cut engages.
template <typename Instance>
bool agrees_with_seed_search(const Instance& inst, const std::string& ctx) {
  const auto [r, seed] = both_searches(inst);
  EXPECT_FALSE(r.truncated) << ctx;
  EXPECT_EQ(r.feasible, seed.feasible) << ctx;
  if (!r.feasible || !seed.feasible) return false;
  EXPECT_EQ(r.cmax, seed.cmax) << ctx;
  EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid) << ctx;
  EXPECT_EQ(makespan(inst, r.schedule), r.cmax) << ctx;
  return r.nodes > kCutEngagesAfter;
}

TEST(ExactUniform, MatchesSeedSearchWhereTheCutEngages) {
  Rng rng(20261021);
  int engaged = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const int side = static_cast<int>(rng.uniform_int(7, 9));
    std::vector<std::int64_t> p(2 * static_cast<std::size_t>(side));
    for (auto& x : p) x = 2 * rng.uniform_int(1, 1 + iter % 2);
    std::vector<std::int64_t> speeds = engaging_speeds(rng);
    const auto inst =
        make_uniform_instance(std::move(p), std::move(speeds), engaging_graph(side, iter, rng));
    engaged += agrees_with_seed_search(inst, "side " + std::to_string(side) + " iter " +
                                                 std::to_string(iter))
                   ? 1
                   : 0;
  }
  EXPECT_GE(engaged, 100);
}

TEST(ExactUniform, MatchesSeedSearchWhereTheCutEngagesOnMixedParity) {
  // Times 2 or 4 but one job's 3 or 5.
  Rng rng(20261023);
  int engaged = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const int side = static_cast<int>(rng.uniform_int(7, 9));
    std::vector<std::int64_t> p(2 * static_cast<std::size_t>(side));
    for (auto& x : p) x = 2 * rng.uniform_int(1, 2);
    p[static_cast<std::size_t>(rng.uniform_int(0, 2 * side - 1))] = 2 * rng.uniform_int(1, 2) + 1;
    std::vector<std::int64_t> speeds = engaging_speeds(rng);
    const auto inst =
        make_uniform_instance(std::move(p), std::move(speeds), engaging_graph(side, iter, rng));
    engaged += agrees_with_seed_search(inst, "side " + std::to_string(side) + " iter " +
                                                 std::to_string(iter))
                   ? 1
                   : 0;
  }
  EXPECT_GE(engaged, 80);
}

TEST(ExactUnrelated, MatchesSeedSearchWhereTheCutEngages) {
  Rng rng(20261022);
  int engaged = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    const int side = static_cast<int>(rng.uniform_int(7, 8));
    // Each job's times vary by at most `spread` between machines.
    const std::int64_t spread = iter % 2;
    std::vector<std::vector<std::int64_t>> times(
        3, std::vector<std::int64_t>(2 * static_cast<std::size_t>(side)));
    for (std::size_t j = 0; j < times[0].size(); ++j) {
      const std::int64_t base = rng.uniform_int(1, 1 + spread);
      for (auto& row : times) row[j] = 2 * (base + rng.uniform_int(0, spread));
    }
    const auto inst = make_unrelated_instance(std::move(times), engaging_graph(side, iter, rng));
    engaged += agrees_with_seed_search(inst, "side " + std::to_string(side) + " iter " +
                                                 std::to_string(iter))
                   ? 1
                   : 0;
  }
  EXPECT_GE(engaged, 80);
}

TEST(ExactUnrelated, MatchesSeedSearchWhereTheCutEngagesOnMixedParity) {
  // Times 1..4 plus up to iter % 2 more on each machine, and one entry odd
  // (3..9).
  Rng rng(20261024);
  int engaged = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const int side = static_cast<int>(rng.uniform_int(8, 10));
    std::vector<std::vector<std::int64_t>> times(
        3, std::vector<std::int64_t>(2 * static_cast<std::size_t>(side)));
    for (std::size_t j = 0; j < times[0].size(); ++j) {
      const std::int64_t base = rng.uniform_int(1, 4);
      for (auto& row : times) row[j] = base + rng.uniform_int(0, iter % 2);
    }
    times[static_cast<std::size_t>(rng.uniform_int(0, 2))]
         [static_cast<std::size_t>(rng.uniform_int(0, 2 * side - 1))] =
             2 * rng.uniform_int(1, 4) + 1;
    const auto inst = make_unrelated_instance(std::move(times), engaging_graph(side, iter, rng));
    engaged += agrees_with_seed_search(inst, "side " + std::to_string(side) + " iter " +
                                                 std::to_string(iter))
                   ? 1
                   : 0;
  }
  EXPECT_GE(engaged, 20);
}

}  // namespace
}  // namespace bisched
