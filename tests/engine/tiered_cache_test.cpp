// TieredCache tests, through the two instantiations WarmState holds: a miss
// then a hit, no aliasing between instances, both models, clear, LRU
// eviction with its counter, the result key covering alg / eps / options,
// the contains() peek on a disk-only entry, the only-ok-results policy at
// the request level, and the run_parsed integration (the `solve_cache`
// row field).
#include "engine/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "engine/api.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "engine/store/warm_state.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::CachedProfile;
using engine::CacheTier;
using engine::InstanceProfile;
using engine::ProfileCache;
using engine::ResultCache;
using engine::ResultKey;
using engine::SolveOptions;
using engine::SolveResult;

constexpr std::size_t kWide = 1 << 10;

UniformInstance small_uniform() {
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  return make_uniform_instance({2, 1, 1, 3}, {3, 1}, std::move(g));
}

SolveResult ok_result(const std::string& solver, int jobs) {
  SolveResult r;
  r.ok = true;
  r.solver = solver;
  r.guarantee = "exact";
  r.schedule.machine_of.assign(static_cast<std::size_t>(jobs), 0);
  r.cmax = Rational(jobs);
  return r;
}

ResultKey key_of(std::uint64_t hash, const std::string& alg, double eps = 0.1) {
  SolveOptions solve;
  solve.eps = eps;
  return engine::make_result_key(hash, alg, solve);
}

TEST(TieredCache, ProfileMissThenHitReturnsTheProbedProfile) {
  ProfileCache cache(kWide);
  const auto inst = small_uniform();
  const InstanceProfile direct = engine::probe(inst);

  const CachedProfile first = cache.profile(inst);
  EXPECT_FALSE(first.hit());
  EXPECT_EQ(first.hash, instance_hash(inst));
  EXPECT_EQ(first.profile.graph_classes, direct.graph_classes);
  EXPECT_EQ(first.profile.total_work, direct.total_work);
  EXPECT_EQ(first.profile.speed_lcm, direct.speed_lcm);

  const CachedProfile second = cache.profile(inst);
  EXPECT_TRUE(second.hit());
  EXPECT_EQ(second.hash, first.hash);
  EXPECT_EQ(second.profile.jobs, direct.jobs);
  EXPECT_EQ(second.profile.machines, direct.machines);
  EXPECT_EQ(second.profile.unit_jobs, direct.unit_jobs);
  EXPECT_EQ(second.profile.has_class(engine::kGraphCompleteBipartite),
            direct.has_class(engine::kGraphCompleteBipartite));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TieredCache, DistinctInstancesDoNotAlias) {
  Rng rng(31);
  ProfileCache cache(kWide);
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = testing::random_uniform_instance(4, 4, 2, 5, 3, rng);
    const auto cached = cache.profile(q);
    EXPECT_FALSE(cached.hit()) << "trial " << trial;
    EXPECT_EQ(cached.profile.total_work, engine::probe(q).total_work);
  }
  EXPECT_EQ(cache.stats().misses, 10u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(TieredCache, ServesBothModelsAndClearResets) {
  ProfileCache cache(kWide);
  const auto q = small_uniform();
  const auto r = make_unrelated_instance({{3, 1}, {2, 5}}, Graph(2));
  cache.profile(q);
  cache.profile(r);
  EXPECT_TRUE(cache.profile(q).hit());
  EXPECT_TRUE(cache.profile(r).hit());
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.profile(q).hit());
}

TEST(TieredCache, ProfileCapacityBoundEvictsLeastRecentlyUsed) {
  Rng rng(32);
  ProfileCache cache(2);  // tiny: the third distinct insert evicts the LRU entry
  const auto a = testing::random_uniform_instance(3, 3, 2, 3, 2, rng);
  const auto b = testing::random_uniform_instance(3, 3, 2, 3, 2, rng);
  const auto c = testing::random_uniform_instance(3, 3, 2, 3, 2, rng);
  cache.profile(a);
  cache.profile(b);
  EXPECT_TRUE(cache.profile(a).hit());  // promotes a: b is now the LRU entry
  cache.profile(c);                   // evicts b
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.profile(a).hit());
  EXPECT_TRUE(cache.profile(c).hit());
  // Correctness is unaffected by eviction — only hit rate.
  const auto again = cache.profile(b);
  EXPECT_FALSE(again.hit());
  EXPECT_EQ(again.profile.total_work, engine::probe(b).total_work);
}

TEST(TieredCache, ResultMissThenHitReturnsTheStoredResult) {
  ResultCache cache(kWide);
  const ResultKey key = key_of(42, "auto");
  EXPECT_FALSE(cache.lookup(key).has_value());

  cache.store(key, ok_result("q2dp", 5));
  const auto warm = cache.lookup(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->ok);
  EXPECT_EQ(warm->solver, "q2dp");
  EXPECT_EQ(warm->schedule.machine_of.size(), 5u);
  EXPECT_EQ(warm->cmax, Rational(5));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(TieredCache, ResultKeyCoversAlgEpsAndOptions) {
  ResultCache cache(kWide);
  cache.store(key_of(7, "auto", 0.1), ok_result("a", 1));

  EXPECT_TRUE(cache.lookup(key_of(7, "auto", 0.1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(8, "auto", 0.1)).has_value());   // other instance
  EXPECT_FALSE(cache.lookup(key_of(7, "alg1", 0.1)).has_value());   // other solver
  EXPECT_FALSE(cache.lookup(key_of(7, "auto", 0.2)).has_value());   // other eps

  SolveOptions run_all;
  run_all.eps = 0.1;
  run_all.run_all = true;
  EXPECT_FALSE(
      cache.lookup(engine::make_result_key(7, "auto", run_all)).has_value());

  SolveOptions budgeted = run_all;
  budgeted.budget_ms = 50;
  const auto budget_key = engine::make_result_key(7, "auto", budgeted);
  cache.store(budget_key, ok_result("b", 2));
  EXPECT_TRUE(cache.lookup(budget_key).has_value());
  EXPECT_FALSE(
      cache.lookup(engine::make_result_key(7, "auto", run_all)).has_value());
}

TEST(TieredCache, ResultLruEvictsTheColdestEntryAndCounts) {
  ResultCache cache(2);
  cache.store(key_of(1, "auto"), ok_result("a", 1));
  cache.store(key_of(2, "auto"), ok_result("b", 2));
  // Touch 1 so 2 becomes the LRU entry, then insert a third.
  EXPECT_TRUE(cache.lookup(key_of(1, "auto")).has_value());
  cache.store(key_of(3, "auto"), ok_result("c", 3));

  EXPECT_TRUE(cache.lookup(key_of(1, "auto")).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, "auto")).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(3, "auto")).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(TieredCache, ContainsPeeksADiskOnlyEntryWithoutCountingOrPromoting) {
  const fs::path dir = fs::temp_directory_path() / "bisched_tiered_cache_peek";
  fs::remove_all(dir);
  engine::WarmOptions options;
  options.store_dir = dir.string();
  const auto inst = small_uniform();
  const std::uint64_t hash = instance_hash(inst);
  const ResultKey key = key_of(hash, "auto");
  {
    engine::WarmState first(options);
    first.profiles().profile(inst);
    first.results().store(key, ok_result("a", 4));
    ASSERT_TRUE(first.checkpoint());
  }

  // A fresh handle: both entries are on disk only.
  engine::WarmState second(options);
  ProfileCache& profiles = second.profiles();
  ResultCache& results = second.results();
  EXPECT_TRUE(profiles.contains(hash));
  EXPECT_TRUE(results.contains(key));
  EXPECT_FALSE(profiles.contains(hash + 1));
  EXPECT_FALSE(results.contains(key_of(hash, "alg1")));
  for (const engine::CacheStats& s : {profiles.stats(), results.stats()}) {
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.disk_hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 0u);  // not promoted
    EXPECT_EQ(s.disk_entries, 1u);
  }

  // The following get counts exactly one disk hit and promotes the entry.
  CacheTier tier = CacheTier::kMiss;
  const auto profile = profiles.get(hash, &tier);
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->total_work, engine::probe(inst).total_work);
  EXPECT_EQ(tier, CacheTier::kDisk);
  const auto result = results.lookup(key, &tier);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->solver, "a");
  EXPECT_EQ(tier, CacheTier::kDisk);
  for (const engine::CacheStats& s : {profiles.stats(), results.stats()}) {
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.disk_hits, 1u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 1u);
  }
  profiles.get(hash, &tier);
  EXPECT_EQ(tier, CacheTier::kMemory);
  EXPECT_EQ(profiles.stats().hits, 1u);
  fs::remove_all(dir);
}

TEST(TieredCache, FailedResultsAreNeverStored) {
  // kab needs unit jobs: on this weighted instance it fails "not applicable"
  // every time, and each repeat is a result-cache miss, never a replay.
  std::ostringstream text;
  write_instance(text, small_uniform());
  engine::SolveRequest req;
  req.inline_text = text.str();
  req.has_inline_text = true;
  req.alg = "kab";

  engine::WarmState warm;
  for (int round = 0; round < 2; ++round) {
    const auto r = engine::run_request(engine::SolverRegistry::builtin(), warm, req, "auto",
                                       SolveOptions{});
    EXPECT_FALSE(r.ok) << "round " << round;
    EXPECT_TRUE(r.result_cache_used) << "round " << round;
    EXPECT_EQ(r.result_tier, CacheTier::kMiss) << "round " << round;
  }
  const auto stats = warm.results().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(TieredCache, SolveToRowMemoizesRepeatedSolves) {
  Rng rng(51);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  std::ostringstream text;
  write_instance(text, inst);

  engine::WarmState warm_state;
  const auto solve_once = [&] {
    std::istringstream in(text.str());
    return engine::run_parsed(engine::SolverRegistry::builtin(), warm_state, "auto",
                              SolveOptions{}, parse_instance(in));
  };

  const auto cold = solve_once();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.result_cache_used);
  EXPECT_EQ(cold.result_tier, CacheTier::kMiss);

  const auto warm = solve_once();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.result_tier, CacheTier::kMemory);
  EXPECT_EQ(warm.solver, cold.solver);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm_state.results().stats().hits, 1u);
  EXPECT_EQ(warm_state.results().stats().misses, 1u);
  EXPECT_EQ(warm_state.results().stats().disk_hits, 0u);  // no store attached

  // A different eps is a different request: no false sharing.
  std::istringstream in(text.str());
  SolveOptions finer;
  finer.eps = 0.01;
  const auto other = engine::run_parsed(engine::SolverRegistry::builtin(), warm_state,
                                        "auto", finer, parse_instance(in));
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(other.result_tier, CacheTier::kMiss);
}

}  // namespace
}  // namespace bisched
