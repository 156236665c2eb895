// The instance content hash: stability, sensitivity and its golden value.
#include "sched/instance_hash.hpp"

#include <gtest/gtest.h>

namespace bisched {
namespace {

UniformInstance small_uniform() {
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  return make_uniform_instance({2, 1, 1, 3}, {3, 1}, std::move(g));
}

TEST(InstanceHash, StableAcrossObjectIdentityAndEdgeOrder) {
  const auto a = small_uniform();
  // Same content, separately constructed, edges inserted in the other order.
  Graph g(4);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  const auto b = make_uniform_instance({2, 1, 1, 3}, {3, 1}, std::move(g));
  EXPECT_EQ(instance_hash(a), instance_hash(b));
  EXPECT_EQ(instance_hash(a), instance_hash(a));
}

TEST(InstanceHash, GoldenValueIsPartOfTheServingContract) {
  // The hash keys cross-process caches and appears in result rows; an
  // accidental change to the canonical serialization must fail loudly here.
  EXPECT_EQ(hash_hex(instance_hash(small_uniform())), "b4f2633d9d7c540c");
}

TEST(InstanceHash, DistinguishesContentAndModel) {
  const auto base = small_uniform();
  auto heavier = small_uniform();
  heavier.p[0] += 1;
  EXPECT_NE(instance_hash(base), instance_hash(heavier));

  auto faster = small_uniform();
  faster.speeds = {4, 1};
  EXPECT_NE(instance_hash(base), instance_hash(faster));

  auto rewired = small_uniform();
  rewired.conflicts = Graph(4);
  rewired.conflicts.add_edge(0, 2);
  EXPECT_NE(instance_hash(base), instance_hash(rewired));

  // A uniform and an unrelated instance never collide (model tag).
  const auto r2 = make_unrelated_instance({{1, 1}, {1, 1}}, Graph(2));
  const auto q2 = make_uniform_instance({1, 1}, {1, 1}, Graph(2));
  EXPECT_NE(instance_hash(r2), instance_hash(q2));
}

TEST(InstanceHash, HexIsFixedWidthLowercase) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(0xabcdef0123456789ULL), "abcdef0123456789");
}

}  // namespace
}  // namespace bisched
