#include "engine/telemetry/engine_metrics.hpp"

#include "sched/simd_dispatch.hpp"

namespace bisched::engine::telemetry {

namespace {

constexpr const char* kLookupsHelp =
    "Cache lookups by cache and serving tier (mirrored from the cache stats)";
constexpr const char* kEvictionsHelp = "Memory-tier LRU evictions by cache";
constexpr const char* kEntriesHelp = "Current cache entries by cache and tier";
constexpr const char* kFingerprintHelp =
    "Fingerprint index lookups: hit = answered without a parse, miss = fell through";

EngineMetrics::CacheSeries make_cache_series(Registry& r, const std::string& cache) {
  const std::string key = "cache=\"" + cache + "\"";
  return {
      r.counter("bisched_cache_lookups_total", kLookupsHelp,
                key + ",result=\"hit-memory\""),
      r.counter("bisched_cache_lookups_total", kLookupsHelp, key + ",result=\"hit-disk\""),
      r.counter("bisched_cache_lookups_total", kLookupsHelp, key + ",result=\"miss\""),
      r.counter("bisched_cache_evictions_total", kEvictionsHelp, key),
      r.gauge("bisched_cache_entries", kEntriesHelp, key + ",tier=\"memory\""),
      r.gauge("bisched_cache_entries", kEntriesHelp, key + ",tier=\"disk\""),
  };
}

}  // namespace

EngineMetrics::EngineMetrics()
    : solves_ok_(registry_.counter("bisched_solves_total",
                                   "Executed solve requests by outcome",
                                   "status=\"ok\"")),
      solves_error_(registry_.counter("bisched_solves_total",
                                      "Executed solve requests by outcome",
                                      "status=\"error\"")),
      solve_latency_ms_(registry_.histogram(
          "bisched_solve_latency_ms",
          "End-to-end request latency (parse + probe + cache + solve) in ms",
          Histogram::default_latency_bounds_ms())),
      profile_(make_cache_series(registry_, "profile")),
      result_(make_cache_series(registry_, "result")),
      cache_verify_failures_(registry_.counter(
          "bisched_cache_verify_failures_total",
          "Result-cache hits that failed verification against the request's instance")),
      fingerprint_hits_(registry_.counter("bisched_fingerprint_lookups_total",
                                          kFingerprintHelp, "outcome=\"hit\"")),
      fingerprint_misses_(registry_.counter("bisched_fingerprint_lookups_total",
                                            kFingerprintHelp, "outcome=\"miss\"")),
      fingerprint_entries_(registry_.gauge("bisched_fingerprint_entries",
                                           "Current fingerprint index entries")),
      simd_level_(registry_.gauge(
          "bisched_simd_level",
          "Resolved SIMD dispatch level for the DP row kernels (info gauge)",
          std::string("level=\"") + to_string(bisched::simd_level()) + "\"")) {
  simd_level_.set(1);
}

}  // namespace bisched::engine::telemetry
