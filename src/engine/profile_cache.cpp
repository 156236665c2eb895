#include "engine/profile_cache.hpp"

#include <algorithm>

#include "engine/store/codec.hpp"
#include "sched/instance_hash.hpp"

namespace bisched::engine {

ProfileCache::ProfileCache(std::size_t max_entries, store::DiskTier* disk)
    : map_(std::max<std::size_t>(1, max_entries)), disk_(disk) {}

template <typename Instance>
CachedProfile ProfileCache::lookup(const Instance& inst) {
  CachedProfile out;
  out.hash = instance_hash(inst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const InstanceProfile* found = map_.get(out.hash)) {
      ++hits_;
      out.profile = *found;
      out.tier = CacheTier::kMemory;
      return out;
    }
    if (disk_ != nullptr) {
      if (const std::string* blob = disk_->get(store::encode_profile_key(out.hash))) {
        InstanceProfile decoded;
        if (store::decode_profile(*blob, &decoded)) {
          ++disk_hits_;
          map_.put(out.hash, decoded);  // promote: the next lookup is a memory hit
          out.profile = std::move(decoded);
          out.tier = CacheTier::kDisk;
          return out;
        }
      }
    }
  }
  // Probe outside the lock: concurrent misses on the same instance race
  // benignly (both compute the same profile; the second insert overwrites
  // with an identical value).
  out.profile = probe(inst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    map_.put(out.hash, out.profile);
    if (disk_ != nullptr) {
      disk_->put(store::encode_profile_key(out.hash), store::encode_profile(out.profile));
    }
  }
  return out;
}

CacheTier ProfileCache::lookup_hash(std::uint64_t hash, bool record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record ? map_.get(hash) != nullptr : map_.contains(hash)) {
    if (record) ++hits_;
    return CacheTier::kMemory;
  }
  if (disk_ != nullptr) {
    if (const std::string* blob = disk_->get(store::encode_profile_key(hash))) {
      if (!record) return CacheTier::kDisk;
      InstanceProfile decoded;
      if (store::decode_profile(*blob, &decoded)) {
        ++disk_hits_;
        map_.put(hash, std::move(decoded));
        return CacheTier::kDisk;
      }
    }
  }
  if (record) ++misses_;
  return CacheTier::kMiss;
}

CachedProfile ProfileCache::profile(const UniformInstance& inst) { return lookup(inst); }

CachedProfile ProfileCache::profile(const UnrelatedInstance& inst) { return lookup(inst); }

ProfileCache::Stats ProfileCache::stats() const {
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

void ProfileCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  misses_ = 0;
}

void ProfileCache::flush_disk() {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ != nullptr) disk_->flush();
}

bool ProfileCache::checkpoint_disk(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_ == nullptr || disk_->compact(error);
}

}  // namespace bisched::engine
