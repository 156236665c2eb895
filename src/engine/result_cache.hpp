// ResultCache: tiered memoization of full SolveResults.
//
// The profile cache (engine/profile_cache.hpp) removed the per-request probe
// from repeated traffic; this cache removes the *solve*. A key is the
// complete determinant of a solve through the engine — see
// engine/store/codec.hpp, where `make_result_key` is the ONE derivation
// point (instance content hash, algorithm name, eps, run_all, budget_ms,
// key schema version) every boundary uses, so serve/batch/CLI cannot drift
// apart and alias or miss each other's entries. Every execution path
// consults it before dispatching and stores every successful result after,
// so a serve loop answering the same corpus returns warm solves at
// hash-lookup cost; every result row surfaces the outcome in its
// `solve_cache` field.
//
// Tiering: the in-memory LruMap holds decoded results; an optional
// store::DiskTier behind it persists the encoded blobs across processes. A
// disk-tier hit decodes once and promotes into the memory tier; fresh ok
// results are written through. The lookup reports its tier (memory / disk /
// miss) for per-row provenance.
//
// Policy:
//  - Only ok results are stored. Failures may be transient (deadline hit,
//    budget exhausted) and must be retried, not replayed.
//  - budget_ms is part of the key, not a reason to bypass: a result computed
//    under a budget is a valid answer for that budget, and identical requests
//    should not pay for the portfolio twice.
//  - The memory tier is bounded by the same LruMap policy as the profile
//    cache (true LRU, eviction counter in the stats); the disk tier is
//    unbounded and keeps evicted entries.
//  - Keyed by the 64-bit content hash, whose collisions can be constructed
//    (sched/instance_hash.hpp). A colliding hit is caught, not served: the
//    request path validates every hit's schedule and makespan against the
//    requesting instance and solves afresh on a mismatch (engine/api.cpp).
//    Fingerprint-index hits skip that check, and the 128-bit key that would
//    close both is still open.
//
// Thread-safe: one mutex, held only for lookup/insert bookkeeping — entries
// are stored as shared_ptr, so a hit takes a refcount under the lock and the
// caller's copy of the (schedule-carrying) result happens outside it, keeping
// the warm path parallel across a wide pool. Concurrent misses on the same
// key race benignly (both solve, last insert wins).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "engine/lru_map.hpp"
#include "engine/solver.hpp"
#include "engine/store/cache_store.hpp"
#include "engine/store/codec.hpp"

namespace bisched::engine {

// The key type and its one derivation point live in the store subsystem
// (engine/store/codec.hpp); re-exported here for the engine-side vocabulary.
using store::ResultKey;
using store::ResultKeyHash;
using store::make_result_key;

class ResultCache {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;

  // `disk` may be null (memory-only). Borrowed, touched only under this
  // cache's mutex — same contract as ProfileCache.
  explicit ResultCache(std::size_t max_entries = kDefaultMaxEntries,
                       DiskTier* disk = nullptr);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The memoized result, or nullopt. A hit is a copy: callers own their
  // result and may stamp wall_ms etc. without racing the cache. When `tier`
  // is non-null it receives the serving tier (kMiss on a miss). With
  // `count_miss` false a miss is not counted — the fingerprint path probes
  // here first and, on a miss, falls through to a lookup that counts it.
  std::optional<SolveResult> lookup(const ResultKey& key, CacheTier* tier = nullptr,
                                    bool count_miss = true);

  // Stores ok results in both tiers; not-ok results are ignored (policy).
  void store(const ResultKey& key, const SolveResult& result);

  struct Stats {
    std::uint64_t hits = 0;       // served from the memory tier
    std::uint64_t disk_hits = 0;  // served from the disk tier (then promoted)
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  // memory tier only
    std::size_t entries = 0;
    std::size_t disk_entries = 0;
  };
  Stats stats() const;
  void clear();  // memory tier + counters; persisted entries are untouched

  // Disk-tier maintenance; no-ops without a disk tier.
  void flush_disk();
  bool checkpoint_disk(std::string* error = nullptr);

 private:
  mutable std::mutex mu_;
  LruMap<ResultKey, std::shared_ptr<const SolveResult>, ResultKeyHash> map_;
  DiskTier* disk_;
  std::uint64_t hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bisched::engine
