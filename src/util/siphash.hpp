// SipHash-2-4 (Aumasson & Bernstein, "SipHash: a fast short-input PRF"):
// a keyed hash whose outputs an adversary who does not know the key cannot
// steer into collisions. The engine keys its fingerprint index with it
// (engine/fingerprint_index.hpp), so two different request bodies that map
// to one digest would take a secret 128-bit key to construct, not just a
// weak hash function. The 64-bit form is exposed for the reference test
// vectors; callers that index on the digest use the 128-bit form.
//
// Keys are the caller's: this module never draws randomness itself.
#pragma once

#include <cstdint>
#include <string_view>

namespace bisched {

struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

struct Digest128 {
  std::uint64_t lo = 0;  // output bytes 0..7, little-endian
  std::uint64_t hi = 0;  // output bytes 8..15, little-endian

  bool operator==(const Digest128& other) const = default;
};

std::uint64_t siphash24_64(const SipKey& key, std::string_view bytes);
Digest128 siphash24_128(const SipKey& key, std::string_view bytes);

}  // namespace bisched
