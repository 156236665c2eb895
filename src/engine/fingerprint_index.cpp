#include "engine/fingerprint_index.hpp"

#include <algorithm>
#include <random>

namespace bisched::engine {

namespace {

SipKey random_key() {
  std::random_device device;
  const auto word = [&device] {
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  };
  SipKey key;
  key.k0 = word();
  key.k1 = word();
  return key;
}

}  // namespace

FingerprintIndex::FingerprintIndex(std::size_t max_entries)
    : key_(random_key()), map_(std::max<std::size_t>(1, max_entries)) {}

Digest128 FingerprintIndex::digest(std::string_view bytes) const {
  return siphash24_128(key_, bytes);
}

std::optional<FingerprintEntry> FingerprintIndex::find(const Digest128& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const FingerprintEntry* entry = map_.get(digest)) return *entry;
  return std::nullopt;
}

void FingerprintIndex::insert(const Digest128& digest, const FingerprintEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.put(digest, entry);
}

void FingerprintIndex::record(bool hit) {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
}

FingerprintIndex::Stats FingerprintIndex::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.entries = map_.size();
  return s;
}

}  // namespace bisched::engine
