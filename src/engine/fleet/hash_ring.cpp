#include "engine/fleet/hash_ring.hpp"

#include <algorithm>

#include "util/siphash.hpp"

namespace bisched::engine::fleet {
namespace {

// splitmix64 — a well-mixed 64-bit permutation, the standard choice for
// turning small structured integers (backend, replica) into ring positions.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t placement_key(std::string_view bytes) {
  static constexpr SipKey kPlacementKey{0x6269736368656421ULL, 0x706c6163656d656eULL};
  return siphash24_64(kPlacementKey, bytes);
}

HashRing::HashRing(std::size_t backends) : backends_(backends) {
  points_.reserve(backends * static_cast<std::size_t>(kVirtualNodes));
  for (std::size_t b = 0; b < backends; ++b) {
    for (int r = 0; r < kVirtualNodes; ++r) {
      const std::uint64_t position =
          mix((static_cast<std::uint64_t>(b) << 32) | static_cast<std::uint64_t>(r));
      points_.push_back({position, static_cast<std::uint32_t>(b)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) { return a.position < b.position; });
}

std::size_t HashRing::owner(std::uint64_t key) const {
  if (points_.empty()) return 0;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.position < k; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->backend;
}

std::vector<std::size_t> HashRing::candidates(std::uint64_t key) const {
  std::vector<std::size_t> order;
  order.reserve(backends_);
  if (points_.empty()) return order;
  std::vector<bool> seen(backends_, false);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.position < k; });
  for (std::size_t walked = 0; walked < points_.size() && order.size() < backends_;
       ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (!seen[it->backend]) {
      seen[it->backend] = true;
      order.push_back(it->backend);
    }
  }
  return order;
}

}  // namespace bisched::engine::fleet
