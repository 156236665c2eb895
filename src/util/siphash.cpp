#include "util/siphash.hpp"

#include <bit>
#include <cstring>

namespace bisched {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

// Little-endian load of up to 8 bytes.
inline std::uint64_t load_le(const char* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void rounds(int n) {
    for (int i = 0; i < n; ++i) {
      v0 += v1;
      v1 = rotl(v1, 13);
      v1 ^= v0;
      v0 = rotl(v0, 32);
      v2 += v3;
      v3 = rotl(v3, 16);
      v3 ^= v2;
      v0 += v3;
      v3 = rotl(v3, 21);
      v3 ^= v0;
      v2 += v1;
      v1 = rotl(v1, 17);
      v1 ^= v2;
      v2 = rotl(v2, 32);
    }
  }
  void absorb(std::uint64_t m) {
    v3 ^= m;
    rounds(2);
    v0 ^= m;
  }
  std::uint64_t fold() const { return v0 ^ v1 ^ v2 ^ v3; }
};

// Initialization plus compression of every block, the length-tagged tail
// included; `wide` selects the 128-bit output's domain separation.
SipState compress(const SipKey& key, std::string_view bytes, bool wide) {
  SipState s{0x736f6d6570736575ULL ^ key.k0, 0x646f72616e646f6dULL ^ key.k1,
             0x6c7967656e657261ULL ^ key.k0, 0x7465646279746573ULL ^ key.k1};
  if (wide) s.v1 ^= 0xee;
  const std::size_t full = bytes.size() & ~std::size_t{7};
  for (std::size_t i = 0; i < full; i += 8) {
    std::uint64_t m;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&m, bytes.data() + i, 8);
    } else {
      m = load_le(bytes.data() + i, 8);
    }
    s.absorb(m);
  }
  s.absorb(load_le(bytes.data() + full, bytes.size() - full) |
           (static_cast<std::uint64_t>(bytes.size()) << 56));
  return s;
}

}  // namespace

std::uint64_t siphash24_64(const SipKey& key, std::string_view bytes) {
  SipState s = compress(key, bytes, /*wide=*/false);
  s.v2 ^= 0xff;
  s.rounds(4);
  return s.fold();
}

Digest128 siphash24_128(const SipKey& key, std::string_view bytes) {
  SipState s = compress(key, bytes, /*wide=*/true);
  s.v2 ^= 0xee;
  s.rounds(4);
  Digest128 out;
  out.lo = s.fold();
  s.v1 ^= 0xdd;
  s.rounds(4);
  out.hi = s.fold();
  return out;
}

}  // namespace bisched
