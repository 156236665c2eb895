// FingerprintIndex: exact request bytes -> canonical instance identity.
//
// A warm repeat used to pay a full parse_instance, Graph build and canonical
// instance_hash before the profile and result caches could answer it — ~90%
// of an 800-job hit. This index sits in front of them: it maps a keyed
// 128-bit SipHash digest of the instance bytes (the decoded JSON `instance`
// text, or the bytes of a `solve PATH` file) to what the caches and the
// response need — the canonical content hash, model, and job/machine counts.
// api::run_request consults it first; a known digest whose profile and
// result are both still cached is answered with no parse at all.
//
// What it deliberately is not:
//  - A body store. Entries hold the digest, never the bytes (~120 B each
//    with the LRU bookkeeping); a collision would need the process's secret
//    SipHash key, drawn from std::random_device at construction and never
//    persisted (the index is memory-only).
//  - A semantic cache. Two byte-different renderings of one instance (a
//    comment, extra spaces) get two digests, each mapping to the same hash.
//  - A source of failures. Only bodies whose parse and solve succeeded are
//    inserted; anything else re-runs the full path every time.
//
// Bounded by WarmOptions::profile_entries (one body maps to exactly one
// profile), true LRU via LruMap. Thread-safe: one mutex around the map; the
// digest is computed outside it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "engine/lru_map.hpp"
#include "util/siphash.hpp"

namespace bisched::engine {

// What a known body resolves to without parsing it.
struct FingerprintEntry {
  std::uint64_t hash = 0;  // canonical instance_hash (the cache key)
  std::int32_t jobs = 0;
  std::int32_t machines = 0;
  bool unrelated = false;  // model: false = uniform
};

class FingerprintIndex {
 public:
  explicit FingerprintIndex(std::size_t max_entries);
  FingerprintIndex(const FingerprintIndex&) = delete;
  FingerprintIndex& operator=(const FingerprintIndex&) = delete;

  // The keyed digest of `bytes` (no lock; the key never changes).
  Digest128 digest(std::string_view bytes) const;

  // The entry for `digest` (promoted to most-recently-used), or nullopt.
  std::optional<FingerprintEntry> find(const Digest128& digest);
  void insert(const Digest128& digest, const FingerprintEntry& entry);

  // Lookup outcomes as the caller judged them: a hit is a request answered
  // from the index; a miss fell through to the parse (unknown digest, or a
  // known one whose profile or result had been evicted).
  void record(bool hit);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct DigestHash {
    std::size_t operator()(const Digest128& d) const { return static_cast<std::size_t>(d.lo); }
  };

  const SipKey key_;
  mutable std::mutex mu_;
  LruMap<Digest128, FingerprintEntry, DigestHash> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bisched::engine
