#include "engine/result_cache.hpp"

#include <utility>

// The member function ResultCache::store shadows the `store` namespace
// inside member bodies; the alias keeps the codec calls readable.
namespace codec = bisched::engine::store;

namespace bisched::engine {

ResultCache::ResultCache(std::size_t max_entries, DiskTier* disk)
    : map_(max_entries < 1 ? 1 : max_entries), disk_(disk) {}

std::optional<SolveResult> ResultCache::lookup(const ResultKey& key, CacheTier* tier,
                                              bool count_miss) {
  if (tier != nullptr) *tier = CacheTier::kMiss;
  std::shared_ptr<const SolveResult> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* entry = map_.get(key)) {
      ++hits_;
      found = *entry;
      if (tier != nullptr) *tier = CacheTier::kMemory;
    } else if (disk_ != nullptr) {
      if (const std::string* blob = disk_->get(codec::encode_result_key(key))) {
        SolveResult decoded;
        if (codec::decode_result(*blob, &decoded)) {
          ++disk_hits_;
          auto entry = std::make_shared<const SolveResult>(std::move(decoded));
          map_.put(key, entry);  // promote: the next lookup is a memory hit
          found = std::move(entry);
          if (tier != nullptr) *tier = CacheTier::kDisk;
        }
      }
    }
    if (found == nullptr && count_miss) ++misses_;
  }
  if (found == nullptr) return std::nullopt;
  return *found;  // the schedule copy happens outside the lock
}

void ResultCache::store(const ResultKey& key, const SolveResult& result) {
  if (!result.ok) return;
  auto entry = std::make_shared<const SolveResult>(result);
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) {
    disk_->put(codec::encode_result_key(key), codec::encode_result(*entry));
  }
  map_.put(key, std::move(entry));
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.disk_hits = disk_hits_;
  s.misses = misses_;
  s.evictions = map_.evictions();
  s.entries = map_.size();
  s.disk_entries = disk_ != nullptr ? disk_->entries() : 0;
  return s;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  misses_ = 0;
}

void ResultCache::flush_disk() {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) disk_->flush();
}

bool ResultCache::checkpoint_disk(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_ == nullptr || disk_->compact(error);
}

}  // namespace bisched::engine
