// Cross-API consistency properties that no single module test pins down.
#include <gtest/gtest.h>

#include "core/alg_random_balanced.hpp"
#include "core/q2_general.hpp"
#include "graph/bipartite.hpp"
#include "random/generators.hpp"
#include "sched/lower_bounds.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

// The Q -> R embedding of instance.hpp must scale EVERY schedule's makespan
// by exactly the lcm factor — not just optimal ones.
TEST(Consistency, UniformAsUnrelatedScalesAllSchedules) {
  Rng rng(71);
  for (int iter = 0; iter < 20; ++iter) {
    const auto q2 = testing::random_uniform_instance(3, 3, 2, 9, 6, rng);
    std::int64_t scale = 0;
    const auto r2 = uniform_as_unrelated(q2, 0, 2, &scale);
    for (int trial = 0; trial < 10; ++trial) {
      Schedule s;
      s.machine_of.resize(static_cast<std::size_t>(q2.num_jobs()));
      for (auto& machine : s.machine_of) machine = static_cast<int>(rng.uniform_int(0, 1));
      if (validate(q2, s) != ScheduleStatus::kValid) continue;
      EXPECT_EQ(Rational(makespan(r2, s), scale), makespan(q2, s));
    }
  }
}

// Embedding preserves the conflict graph, so validity is equivalent.
TEST(Consistency, EmbeddingPreservesValidity) {
  Rng rng(72);
  const auto q2 = testing::random_uniform_instance(4, 4, 2, 5, 3, rng);
  const auto r2 = uniform_as_unrelated(q2, 0, 2);
  for (int trial = 0; trial < 30; ++trial) {
    Schedule s;
    s.machine_of.resize(static_cast<std::size_t>(q2.num_jobs()));
    for (auto& machine : s.machine_of) machine = static_cast<int>(rng.uniform_int(0, 1));
    EXPECT_EQ(validate(q2, s), validate(r2, s));
  }
}

TEST(Consistency, LowerBoundSurvivesNonBipartiteGraphs) {
  // Odd cycle: lb_off_machine1 must gracefully decline, not abort, and the
  // combined bound still works from the other two components.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const auto inst = make_uniform_instance({4, 4, 4}, {2, 1, 1}, std::move(g));
  EXPECT_FALSE(lb_off_machine1(inst).has_value());
  EXPECT_TRUE(lower_bound(inst) >= lb_pmax(inst));
  EXPECT_TRUE(lower_bound(inst) >= lb_cover_all(inst));
}

TEST(Consistency, Q2FptasEpsOneIsTwoApproximate) {
  Rng rng(73);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = testing::random_uniform_instance(
        2 + static_cast<int>(rng.uniform_int(0, 4)), 2 + static_cast<int>(rng.uniform_int(0, 4)),
        2, 9, 4, rng);
    const auto coarse = q2_fptas(inst, 1.0).value();
    const auto exact = q2_weighted_exact_dp(inst);
    EXPECT_TRUE(coarse.cmax <= exact.cmax * Rational(2));
    EXPECT_TRUE(exact.cmax <= coarse.cmax);
  }
}

TEST(Consistency, Alg2BalancedNeverInvalidEvenOnDenseGraphs) {
  Rng rng(74);
  for (double density : {0.0, 0.3, 1.0}) {
    const int a = 6, b = 6;
    const auto m = static_cast<std::int64_t>(density * a * b);
    Graph g = random_bipartite_edges(a, b, m, rng);
    const auto inst = make_uniform_instance(uniform_weights(a + b, 1, 9, rng),
                                            {7, 3, 1}, std::move(g));
    const auto r = alg2_balanced(inst);
    EXPECT_EQ(validate(inst, r.schedule), ScheduleStatus::kValid) << density;
    EXPECT_TRUE(lower_bound(inst) <= r.cmax);
  }
}

// Component lists of bipartition and connected_components agree.
TEST(Consistency, BipartitionAndComponentsAgree) {
  Rng rng(75);
  for (int iter = 0; iter < 20; ++iter) {
    const int a = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int b = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const Graph g = random_bipartite_edges(
        a, b, rng.uniform_int(0, static_cast<std::int64_t>(a) * b / 2), rng);
    const auto bp = bipartition(g);
    const auto cc = connected_components(g);
    ASSERT_TRUE(bp.has_value());
    EXPECT_EQ(bp->num_components, cc.num_components);
    EXPECT_EQ(bp->component_vertices, cc.component_vertices);
  }
}

}  // namespace
}  // namespace bisched
