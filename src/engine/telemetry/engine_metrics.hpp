// The engine's standard metric set, pre-registered over one Registry.
//
// WarmState owns one of these (engine/store/warm_state.hpp), so every
// boundary that shares warm state — CLI solve, batch workers, serve
// sessions — also shares one metric registry: api::run_request records every
// solve into it, and serve scrapes it for the `metrics` frame. Owning the
// registry per-WarmState (not per-process) keeps tests and embedded engines
// isolated: two servers in one process count independently.
//
// Naming: everything is prefixed `bisched_`; the full catalog (names, types,
// labels) is documented in docs/telemetry.md and pinned by the exposition
// golden in tests/engine/golden/metric_names.txt.
//
// The cache layers keep their own Stats structs (pre-telemetry sources of
// truth, already surfaced on the stats frame); mirror_cache() ratchets those
// totals into the registry at scrape time — CacheStatsView keeps this header
// free of the cache headers.
#pragma once

#include <cstdint>

#include "engine/telemetry/metrics.hpp"

namespace bisched::engine::telemetry {

// Structurally ProfileCache::Stats / ResultCache::Stats.
struct CacheStatsView {
  std::uint64_t hits_memory = 0;
  std::uint64_t hits_disk = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries_memory = 0;
  std::uint64_t entries_disk = 0;
};

class EngineMetrics {
 public:
  // Per-cache mirrored series: lookups by serving tier, evictions, and the
  // current entry counts per tier.
  struct CacheSeries {
    Counter& hits_memory;   // bisched_cache_lookups_total{cache=...,result="hit-memory"}
    Counter& hits_disk;     // ...result="hit-disk"
    Counter& misses;        // ...result="miss"
    Counter& evictions;     // bisched_cache_evictions_total{cache=...}
    Gauge& entries_memory;  // bisched_cache_entries{cache=...,tier="memory"}
    Gauge& entries_disk;    // ...tier="disk"
  };

  EngineMetrics();
  EngineMetrics(const EngineMetrics&) = delete;
  EngineMetrics& operator=(const EngineMetrics&) = delete;

  Registry& registry() { return registry_; }

  // Recorded by api::run_request on every executed request.
  Counter& solves_ok() { return solves_ok_; }
  Counter& solves_error() { return solves_error_; }
  Histogram& solve_latency_ms() { return solve_latency_ms_; }

  CacheSeries& profile_cache() { return profile_; }
  CacheSeries& result_cache() { return result_; }
  static void mirror_cache(CacheSeries& series, const CacheStatsView& view);

  // The fingerprint index (engine/fingerprint_index.hpp), mirrored like the
  // caches: requests answered parse-free vs. fallen through to the parse,
  // and the current entry count.
  Counter& fingerprint_hits() { return fingerprint_hits_; }      // outcome="hit"
  Counter& fingerprint_misses() { return fingerprint_misses_; }  // outcome="miss"
  Gauge& fingerprint_entries() { return fingerprint_entries_; }

  // Info-style gauge: bisched_simd_level{level="<resolved>"} 1. The label is
  // the dispatch level the DP kernels resolved to (sched/simd_dispatch.hpp),
  // captured when this registry is built.
  Gauge& simd_level() { return simd_level_; }

 private:
  Registry registry_;
  Counter& solves_ok_;
  Counter& solves_error_;
  Histogram& solve_latency_ms_;
  CacheSeries profile_;
  CacheSeries result_;
  Counter& fingerprint_hits_;
  Counter& fingerprint_misses_;
  Gauge& fingerprint_entries_;
  Gauge& simd_level_;
};

}  // namespace bisched::engine::telemetry
