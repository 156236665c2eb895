// LruMap: the one bounded-map policy shared by the engine's caches.
//
// A long-lived serve process must not grow memory without limit, so the
// memory tier of TieredCache (engine/tiered_cache.hpp) and the fingerprint
// index (engine/fingerprint_index.hpp) sit on this map: an unordered_map
// into an intrusive recency list, true least-recently-used eviction (get()
// promotes, put() evicts the coldest entry once `capacity` is reached), and
// an eviction counter the owners surface in their stats. Not thread-safe by
// design: the owner already holds a mutex around every call, and keeping
// the lock out of here keeps the policy testable in isolation.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace bisched::engine {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    BISCHED_CHECK(capacity >= 1, "LruMap capacity must be positive");
  }

  // Pointer to the value (promoted to most-recently-used), or nullptr.
  // The pointer is invalidated by the next put() or clear().
  const Value* get(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Membership without promotion.
  bool contains(const Key& key) const { return map_.count(key) != 0; }

  // Inserts or overwrites; the entry becomes most-recently-used. Evicts the
  // least-recently-used entry when inserting past capacity.
  void put(const Key& key, Value value) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }

  void clear() {
    map_.clear();
    order_.clear();
    evictions_ = 0;
  }

 private:
  using Entry = std::pair<Key, Value>;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
};

}  // namespace bisched::engine
