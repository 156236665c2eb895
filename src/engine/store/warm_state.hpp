// WarmState: the one warm-state handle the engine context carries.
//
// api::run_request, BatchRunner and the serve Server share their memo
// layers through this single handle: a ProfileCache (probe() results by
// instance content hash) and a ResultCache (solved results by ResultKey),
// both instantiations of the one TieredCache (engine/tiered_cache.hpp).
// Constructed with a store directory, it opens a store::CacheStore there,
// wires a "profile" and a "result" namespace (engine/store/cache_store.hpp)
// behind the two memory tiers, and loads whatever a previous process
// persisted — so a fleet shard can be warmed by pointing it at a store
// directory.
//
// Lifecycle:
//   boot        WarmState(options) — loads snapshot + journal per namespace;
//               anomalies (rejected versions, torn tails) in *message.
//   steady      flush() — pushes buffered journal appends to the OS; serve
//               calls it periodically, so a crash loses at most the last
//               interval.
//   shutdown    checkpoint() — compacts both namespaces (snapshot rewrite +
//               journal reset); batch/solve/serve call it on clean exit.
//
// Without a store directory the handle is memory-only.
//
// Both caches key by the 64-bit content hash, whose collisions can be
// constructed (sched/instance_hash.hpp). A colliding profile can admit a
// solver the instance does not suit; the portfolio's bipartite gate
// re-checks the instance before any bipartite-only solver runs, so it fails
// cleanly. A colliding result is caught by the request path's verified-hit
// check (engine/api.cpp), which fingerprint-index hits skip (answer_known
// there). The collision-proof 128-bit key is still open.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "engine/fingerprint_index.hpp"
#include "engine/solver.hpp"
#include "engine/store/cache_store.hpp"
#include "engine/store/codec.hpp"
#include "engine/telemetry/engine_metrics.hpp"
#include "engine/tiered_cache.hpp"
#include "sched/instance_hash.hpp"

namespace bisched::engine {

// The result key and its one derivation point live in the store subsystem
// (engine/store/codec.hpp); re-exported for the engine-side vocabulary.
using store::ResultKey;
using store::ResultKeyHash;
using store::make_result_key;

// A profile plus its cache provenance: `hash` is the instance's stable
// content hash (the cache key, surfaced in result rows) and `tier` says
// which tier served the profile (kMiss = probed fresh).
struct CachedProfile {
  InstanceProfile profile;
  std::uint64_t hash = 0;
  CacheTier tier = CacheTier::kMiss;

  bool hit() const { return tier != CacheTier::kMiss; }
};

// The two instantiations WarmState holds. profile(), lookup() and store()
// are shared by the request path (engine/api.cpp) and perfbench's
// in-process ledger (perfbench/src/ledger.cpp), so each is written once here.
class ProfileCache final : public TieredCache<std::uint64_t, InstanceProfile> {
 public:
  using TieredCache::TieredCache;

  // Hash, get, and on a miss probe outside the lock and put. Concurrent
  // misses on one instance race benignly: both probe, the values agree.
  template <typename Instance>
  CachedProfile profile(const Instance& inst) {
    CachedProfile out;
    out.hash = instance_hash(inst);
    if (auto hit = get(out.hash, &out.tier)) {
      out.profile = *hit;
    } else {
      out.profile = probe(inst);
      put(out.hash, out.profile);
    }
    return out;
  }
};

// Results are held by shared_ptr: a hit takes a refcount under the lock,
// and lookup() copies the schedule-carrying result outside it.
class ResultCache final
    : public TieredCache<ResultKey, std::shared_ptr<const SolveResult>, ResultKeyHash> {
 public:
  using TieredCache::TieredCache;

  // The memoized result as the caller's own copy, or nullopt.
  std::optional<SolveResult> lookup(const ResultKey& key, CacheTier* tier = nullptr) {
    const auto hit = get(key, tier);
    if (!hit.has_value()) return std::nullopt;
    return **hit;  // the schedule copy happens outside the lock
  }
  // Stores ok results only: a failure may be transient (deadline hit,
  // budget exhausted) and must be retried, not replayed.
  void store(const ResultKey& key, const SolveResult& result) {
    if (result.ok) put(key, std::make_shared<const SolveResult>(result));
  }
};

struct WarmOptions {
  std::string store_dir;  // empty = memory-only
  // Memory-tier LRU bounds; profile_entries also bounds the fingerprint
  // index (one request body maps to exactly one profile).
  std::size_t profile_entries = 1 << 20;
  std::size_t result_entries = 1 << 16;
};

class WarmState {
 public:
  // Memory-only warm state with default bounds.
  WarmState();
  // With options.store_dir set, opens (creating if needed) the persistent
  // store and loads both namespaces. On store failure the state degrades to
  // memory-only and *message explains; load anomalies (rejected files, torn
  // tails) are appended to *message with the state still usable.
  explicit WarmState(const WarmOptions& options, std::string* message = nullptr);
  WarmState(const WarmState&) = delete;
  WarmState& operator=(const WarmState&) = delete;

  ProfileCache& profiles() { return *profiles_; }
  ResultCache& results() { return *results_; }
  const ProfileCache& profiles() const { return *profiles_; }
  const ResultCache& results() const { return *results_; }

  // Request-bytes digest -> instance identity, consulted by
  // api::run_request before any parse. Memory-only: it is never persisted,
  // so a restart (or a store-warmed boot) starts it empty.
  FingerprintIndex& fingerprints() { return *fingerprints_; }

  // The metric registry every boundary sharing this warm state records into
  // (api::run_request per solve; serve adds its frame/session series). Owned
  // here rather than process-global so embedded engines and tests stay
  // isolated. mirror_metrics() ratchets the caches' CacheStats counters into
  // the registry — call it before scraping.
  telemetry::EngineMetrics& telemetry() { return *telemetry_; }
  void mirror_metrics();

  // The store's bench-history namespace (engine/store/bench_history.hpp),
  // opened lazily on first use — an in-process sim run appends its report
  // through the SAME store handle its caches warm, so the append cannot
  // lose a write-lease race against itself. nullptr when memory-only.
  DiskTier* bench_history();

  bool persistent() const { return store_ != nullptr; }
  // Empty when memory-only.
  const std::string& store_dir() const;
  // True when the store is open but another process holds its write lease:
  // disk-tier entries are served, nothing new is persisted.
  bool store_read_only() const { return store_ != nullptr && store_->read_only(); }

  // Journal flush on both namespaces (cheap; safe from any thread).
  void flush();
  // Snapshot compaction on both namespaces; false with *error on failure.
  bool checkpoint(std::string* error = nullptr);

 private:
  std::unique_ptr<store::CacheStore> store_;  // null = memory-only
  // Declared after store_: the caches borrow the store's tiers and must be
  // destroyed first.
  std::unique_ptr<ProfileCache> profiles_;
  std::unique_ptr<ResultCache> results_;
  std::unique_ptr<FingerprintIndex> fingerprints_;
  std::unique_ptr<telemetry::EngineMetrics> telemetry_;
};

}  // namespace bisched::engine
