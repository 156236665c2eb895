// Consistent-hash ring over fleet backends.
//
// The router keys every solve on placement_key() of the bytes it forwards
// (the inline instance text, or the path string of a `solve PATH` frame), so
// byte-identical repeat traffic lands on one backend — that backend's
// probe/result caches and disk tier stay hot for its slice, which is the
// whole point of fanning out instead of round-robining. The key is not
// semantic: two renderings of one instance, or two spellings of one path,
// may land on different backends (the backends' fingerprint index makes the
// same trade). A classic fixed-point ring with virtual nodes keeps the
// slices balanced and keeps reassignment minimal if the fleet is ever
// resized: each backend owns `kVirtualNodes` points at
// mix(backend, replica), and a key maps to the first point clockwise.
//
// The ring is built once for a fixed backend count and is immutable —
// liveness is NOT the ring's business. `candidates(key)` returns every
// backend exactly once, in ring order from the key's home point; the router
// walks that order (healthy first) for retry/failover, so a key's traffic
// deterministically fails over to the next slice owner rather than a random
// peer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace bisched::engine::fleet {

// The ring key of one routed request's forwarded bytes: SipHash-2-4 under a
// fixed key, not one drawn per process — every router over a fleet must
// place a body identically, and each backend's --store slice follows the
// placement, so changing this function re-homes every stored result.
std::uint64_t placement_key(std::string_view bytes);

class HashRing {
 public:
  static constexpr int kVirtualNodes = 64;  // per backend; plenty below 100 backends

  explicit HashRing(std::size_t backends);

  std::size_t backends() const { return backends_; }

  // The key's home backend (the first ring point at or after the key).
  std::size_t owner(std::uint64_t key) const;

  // Every backend exactly once, starting at the key's home and continuing in
  // ring order — the deterministic failover sequence for this key.
  std::vector<std::size_t> candidates(std::uint64_t key) const;

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t backend;
  };

  std::size_t backends_;
  std::vector<Point> points_;  // sorted by position
};

}  // namespace bisched::engine::fleet
