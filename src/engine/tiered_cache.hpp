// TieredCache: the engine's one memo mechanism — a bounded in-memory tier
// (engine/lru_map.hpp) in front of an optional persistent store::DiskTier
// (engine/store/cache_store.hpp).
//
// get() walks memory, then disk: a memory hit becomes most-recently-used, a
// disk hit decodes its blob once and is promoted into the memory tier, and
// every call counts exactly one memory hit, disk hit or miss. contains()
// answers the same question without counting or promoting, so a caller can
// check before it commits. put() writes through to the disk tier, so the
// next process boots warm. Keys and values cross the disk tier through the
// engine/store/codec.hpp codecs; tiered_cache.cpp compiles the two
// instantiations WarmState holds (engine/store/warm_state.hpp): profiles
// keyed by instance hash, and results keyed by ResultKey.
//
// The memory tier is bounded (true LRU, evictions counted in CacheStats);
// the disk tier is unbounded and keeps evicted entries.
//
// Thread-safe: one mutex around both tiers, held only for the bookkeeping.
// get() returns a copy of the stored Value, so a cache of shared_ptr takes a
// refcount under the lock and the caller copies the pointee outside it.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "engine/lru_map.hpp"
#include "engine/store/cache_store.hpp"

namespace bisched::engine {

struct CacheStats {
  std::uint64_t hits = 0;       // served from the memory tier
  std::uint64_t disk_hits = 0;  // served from the disk tier (then promoted)
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  // memory tier only; disk entries persist
  std::size_t entries = 0;
  std::size_t disk_entries = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class TieredCache {
 public:
  // `disk` may be null (memory-only). The tier is borrowed — its owning
  // CacheStore must outlive the cache — and is only touched under the mutex.
  explicit TieredCache(std::size_t max_entries, DiskTier* disk = nullptr);
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;

  // The cached value, or nullopt. `tier`, when non-null, receives the
  // serving tier (kMiss on a miss).
  std::optional<Value> get(const Key& key, CacheTier* tier = nullptr);
  bool contains(const Key& key) const;
  void put(const Key& key, Value value);

  CacheStats stats() const;
  void clear();  // memory tier + counters; persisted entries are untouched

  // Disk-tier maintenance, safe from any thread (periodic serve flushes,
  // final batch/CLI checkpoints). No-ops without a disk tier.
  void flush_disk();
  bool checkpoint_disk(std::string* error = nullptr);

 private:
  mutable std::mutex mu_;
  LruMap<Key, Value, Hash> map_;
  DiskTier* disk_;
  std::uint64_t hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace bisched::engine
