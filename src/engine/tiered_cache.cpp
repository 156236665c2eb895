#include "engine/tiered_cache.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "engine/store/codec.hpp"

namespace bisched::engine {

namespace {

// The disk-tier codecs of the two instantiations, picked by overload.
std::string encode_key(std::uint64_t instance_hash) {
  return store::encode_profile_key(instance_hash);
}

std::string encode_key(const store::ResultKey& key) { return store::encode_result_key(key); }

std::string encode_value(const InstanceProfile& profile) {
  return store::encode_profile(profile);
}

std::string encode_value(const std::shared_ptr<const SolveResult>& result) {
  return store::encode_result(*result);
}

bool decode_value(const std::string& blob, InstanceProfile* out) {
  return store::decode_profile(blob, out);
}

bool decode_value(const std::string& blob, std::shared_ptr<const SolveResult>* out) {
  SolveResult decoded;
  if (!store::decode_result(blob, &decoded)) return false;
  *out = std::make_shared<const SolveResult>(std::move(decoded));
  return true;
}

}  // namespace

template <typename Key, typename Value, typename Hash>
TieredCache<Key, Value, Hash>::TieredCache(std::size_t max_entries, DiskTier* disk)
    : map_(std::max<std::size_t>(1, max_entries)), disk_(disk) {}

template <typename Key, typename Value, typename Hash>
std::optional<Value> TieredCache<Key, Value, Hash>::get(const Key& key, CacheTier* tier) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Value* found = map_.get(key)) {
    ++hits_;
    if (tier != nullptr) *tier = CacheTier::kMemory;
    return *found;
  }
  if (disk_ != nullptr) {
    if (const std::string* blob = disk_->get(encode_key(key))) {
      Value decoded;
      if (decode_value(*blob, &decoded)) {
        ++disk_hits_;
        map_.put(key, decoded);  // promote: the next get is a memory hit
        if (tier != nullptr) *tier = CacheTier::kDisk;
        return decoded;
      }
    }
  }
  ++misses_;
  if (tier != nullptr) *tier = CacheTier::kMiss;
  return std::nullopt;
}

template <typename Key, typename Value, typename Hash>
bool TieredCache<Key, Value, Hash>::contains(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.contains(key) || (disk_ != nullptr && disk_->get(encode_key(key)) != nullptr);
}

template <typename Key, typename Value, typename Hash>
void TieredCache<Key, Value, Hash>::put(const Key& key, Value value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) disk_->put(encode_key(key), encode_value(value));
  map_.put(key, std::move(value));
}

template <typename Key, typename Value, typename Hash>
CacheStats TieredCache<Key, Value, Hash>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s;
  s.hits = hits_;
  s.disk_hits = disk_hits_;
  s.misses = misses_;
  s.evictions = map_.evictions();
  s.entries = map_.size();
  s.disk_entries = disk_ != nullptr ? disk_->entries() : 0;
  return s;
}

template <typename Key, typename Value, typename Hash>
void TieredCache<Key, Value, Hash>::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  misses_ = 0;
}

template <typename Key, typename Value, typename Hash>
void TieredCache<Key, Value, Hash>::flush_disk() {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) disk_->flush();
}

template <typename Key, typename Value, typename Hash>
bool TieredCache<Key, Value, Hash>::checkpoint_disk(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_ == nullptr || disk_->compact(error);
}

template class TieredCache<std::uint64_t, InstanceProfile>;
template class TieredCache<store::ResultKey, std::shared_ptr<const SolveResult>,
                           store::ResultKeyHash>;

}  // namespace bisched::engine
