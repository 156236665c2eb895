#include "engine/store/warm_state.hpp"

#include "engine/store/bench_history.hpp"

namespace bisched::engine {

namespace {

// The namespace headers pin the value codecs; a schema bump (or a future
// semantic flag) makes old files a clean cold start instead of a misread.
store::NamespaceConfig profile_namespace() {
  return {"profile", store::kProfileSchema, /*flags=*/0};
}

store::NamespaceConfig result_namespace() {
  return {"result", store::kResultSchema, /*flags=*/0};
}

void append_message(std::string* message, const std::string& part) {
  if (message == nullptr || part.empty()) return;
  if (!message->empty()) *message += "; ";
  *message += part;
}

}  // namespace

WarmState::WarmState() : WarmState(WarmOptions{}) {}

WarmState::WarmState(const WarmOptions& options, std::string* message) {
  DiskTier* profile_tier = nullptr;
  DiskTier* result_tier = nullptr;
  if (!options.store_dir.empty()) {
    std::string error;
    store_ = store::CacheStore::open(options.store_dir, &error);
    if (store_ == nullptr) {
      append_message(message, error + " (running memory-only)");
    } else {
      // Surface a lost write lease FIRST: "read-only" reframes every later
      // load-report line (nothing here will be repaired or persisted).
      append_message(message, store_->lease_warning());
      profile_tier = store_->open_namespace(profile_namespace());
      result_tier = store_->open_namespace(result_namespace());
      append_message(message, profile_tier->load_report().message);
      append_message(message, result_tier->load_report().message);
    }
  }
  profiles_ = std::make_unique<ProfileCache>(options.profile_entries, profile_tier);
  results_ = std::make_unique<ResultCache>(options.result_entries, result_tier);
  fingerprints_ = std::make_unique<FingerprintIndex>(options.profile_entries);
  telemetry_ = std::make_unique<telemetry::EngineMetrics>();
}

namespace {

void mirror_cache(telemetry::EngineMetrics::CacheSeries& series, const CacheStats& stats) {
  series.hits_memory.mirror(stats.hits);
  series.hits_disk.mirror(stats.disk_hits);
  series.misses.mirror(stats.misses);
  series.evictions.mirror(stats.evictions);
  series.entries_memory.set(static_cast<double>(stats.entries));
  series.entries_disk.set(static_cast<double>(stats.disk_entries));
}

}  // namespace

void WarmState::mirror_metrics() {
  mirror_cache(telemetry_->profile_cache(), profiles_->stats());
  mirror_cache(telemetry_->result_cache(), results_->stats());
  const FingerprintIndex::Stats fingerprints = fingerprints_->stats();
  telemetry_->fingerprint_hits().mirror(fingerprints.hits);
  telemetry_->fingerprint_misses().mirror(fingerprints.misses);
  telemetry_->fingerprint_entries().set(static_cast<double>(fingerprints.entries));
}

DiskTier* WarmState::bench_history() {
  if (store_ == nullptr) return nullptr;
  // open_namespace is idempotent per store (the same tier comes back), so
  // lazy means "not loaded unless some run records history".
  return store_->open_namespace(store::bench_history_namespace());
}

const std::string& WarmState::store_dir() const {
  static const std::string kEmpty;
  return store_ != nullptr ? store_->dir() : kEmpty;
}

void WarmState::flush() {
  profiles_->flush_disk();
  results_->flush_disk();
  // The flush cadence doubles as the write-lease liveness signal.
  if (store_ != nullptr) store_->heartbeat();
}

bool WarmState::checkpoint(std::string* error) {
  const bool profiles_ok = profiles_->checkpoint_disk(error);
  const bool results_ok = results_->checkpoint_disk(profiles_ok ? error : nullptr);
  return profiles_ok && results_ok;
}

}  // namespace bisched::engine
