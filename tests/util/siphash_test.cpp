// SipHash-2-4 against the reference test vectors (key 00..0f, message
// 00..len-1), plus the properties the fingerprint index leans on: the key
// matters, every byte matters, and the block/tail boundary is handled.
#include "util/siphash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace bisched {
namespace {

const SipKey kReferenceKey{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};

std::string counting_bytes(std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += static_cast<char>(i);
  return out;
}

TEST(SipHash, MatchesTheReferenceVectors) {
  // The paper's worked example (Appendix A) and the first vectors.h entries.
  EXPECT_EQ(siphash24_64(kReferenceKey, counting_bytes(15)), 0xa129ca6149be45e5ULL);
  EXPECT_EQ(siphash24_64(kReferenceKey, ""), 0x726fdb47dd0e0e31ULL);
  const Digest128 empty = siphash24_128(kReferenceKey, "");
  EXPECT_EQ(empty.lo, 0xe6a825ba047f81a3ULL);
  EXPECT_EQ(empty.hi, 0x930255c71472f66dULL);
}

TEST(SipHash, KeyAndEveryByteChangeTheDigest) {
  const std::string body = counting_bytes(37);
  const Digest128 base = siphash24_128(kReferenceKey, body);
  EXPECT_NE(siphash24_128({1, 2}, body), base);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen{{base.lo, base.hi}};
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string flipped = body;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    const Digest128 d = siphash24_128(kReferenceKey, flipped);
    EXPECT_TRUE(seen.insert({d.lo, d.hi}).second) << "byte " << i;
  }
  // Lengths straddling the 8-byte block boundary (a trailing zero byte is
  // not the same message: the length is folded into the tail).
  for (std::size_t n = 0; n <= 17; ++n) {
    const Digest128 d = siphash24_128(kReferenceKey, std::string(n, '\0'));
    EXPECT_TRUE(seen.insert({d.lo, d.hi}).second) << "zeros of length " << n;
  }
}

}  // namespace
}  // namespace bisched
