// ProfileCache: instance-hash-keyed memoization of probe() results.
//
// Probing an instance costs O(|V| + |E|) — a BFS 2-coloring plus scans — and
// under repeated traffic (a serve loop answering the same corpus, a run-all
// batch, fleets re-solving hot instances) the same bipartition was being
// recomputed on every solve. The cache keys the full InstanceProfile by
// sched/instance_hash's stable 64-bit content hash, so the batch and serve
// paths probe each distinct instance exactly once per process.
//
// Tiering: the in-memory LruMap (engine/lru_map.hpp) is the front tier; an
// optional store::DiskTier (engine/store/cache_store.hpp) behind it makes
// warm state survive the process. A lookup reports WHERE it was served from
// (CacheTier: memory / disk / miss — the disk path decodes the persisted
// blob once and promotes it into the memory tier), and every fresh probe is
// written through to the disk tier so the next process starts warm.
//
// Thread-safe: one mutex around both tiers. Lookups are cheap relative to a
// solve, and the batch/serve workers only touch the cache once per request.
// Capacity-bounded memory tier for long-lived serve processes: past
// `max_entries` the least-recently-used profile is evicted (the disk tier
// keeps the entry); evictions are counted in Stats and surfaced on the CLI
// stats line.
//
// Keying by the 64-bit hash alone means a hash collision serves the wrong
// profile, and collisions can be constructed (sched/instance_hash.hpp). A
// wrong profile can admit a solver the instance does not suit; the
// portfolio's bipartite gate re-checks the instance itself before any
// bipartite-only solver runs, so it fails cleanly instead of aborting. The
// collision-proof 128-bit key is still open.
#pragma once

#include <cstdint>
#include <mutex>

#include "engine/lru_map.hpp"
#include "engine/solver.hpp"
#include "engine/store/cache_store.hpp"

namespace bisched::engine {

// A profile plus its cache provenance: `hash` is the instance's stable
// content hash (the cache key, surfaced in result rows) and `tier` says
// which tier served the profile (kMiss = probed fresh).
struct CachedProfile {
  InstanceProfile profile;
  std::uint64_t hash = 0;
  CacheTier tier = CacheTier::kMiss;

  bool hit() const { return tier != CacheTier::kMiss; }
};

class ProfileCache {
 public:
  // `disk` may be null (memory-only, the pre-store behavior). The tier is
  // borrowed — its owning CacheStore must outlive the cache — and is only
  // ever touched under this cache's mutex.
  explicit ProfileCache(std::size_t max_entries = 1 << 20,
                        DiskTier* disk = nullptr);
  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  CachedProfile profile(const UniformInstance& inst);
  CachedProfile profile(const UnrelatedInstance& inst);

  // The tier holding the profile of an instance known only by its content
  // hash (the fingerprint path, engine/fingerprint_index.hpp) — no probe on
  // a miss. With `record` the lookup counts exactly as profile() would (a
  // memory hit, a disk hit promoted into memory, or a miss); without it
  // nothing is counted or promoted, so a caller can check before it
  // commits.
  CacheTier lookup_hash(std::uint64_t hash, bool record);

  struct Stats {
    std::uint64_t hits = 0;       // served from the memory tier
    std::uint64_t disk_hits = 0;  // served from the disk tier (then promoted)
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  // memory tier only; disk entries persist
    std::size_t entries = 0;
    std::size_t disk_entries = 0;
  };
  Stats stats() const;
  void clear();  // memory tier + counters; persisted entries are untouched

  // Disk-tier maintenance, safe to call from any thread (periodic serve
  // flushes, final batch/CLI checkpoints). No-ops without a disk tier.
  void flush_disk();
  bool checkpoint_disk(std::string* error = nullptr);

 private:
  template <typename Instance>
  CachedProfile lookup(const Instance& inst);

  mutable std::mutex mu_;
  LruMap<std::uint64_t, InstanceProfile> map_;
  DiskTier* disk_;
  std::uint64_t hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bisched::engine
