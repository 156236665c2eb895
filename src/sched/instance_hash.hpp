// Stable content hashing for scheduling instances.
//
// `instance_hash` is a 64-bit FNV-1a over a canonical serialization of the
// instance: a model tag, the job/machine counts, the processing requirements
// (or the full time matrix), and the conflict edge set folded in as a
// commutative sum of per-edge (min, max) hashes — order-independent without
// sorting. Identical content hashes equally — independent of edge insertion
// order, of the object's address, and of the process (no pointer or ASLR
// input) — so the value is a stable cross-run, cross-process cache key. The
// converse does not hold: distinct instances can collide, and because the
// edge fold is a wrapping sum, a generalized-birthday search constructs such
// a pair in seconds (ROADMAP, "Collision-proof cache keys"). The engine
// defends what a collision reaches today — result-cache hits are verified
// against the requesting instance (engine/api.cpp), and the portfolio
// 2-colours the instance itself before any bipartite-only solver runs — but
// fingerprint-index hits are not checked and the 128-bit key is still open.
// The engine's profile and result caches (engine/tiered_cache.hpp, held by
// engine/store/warm_state.hpp) key by it, and batch/serve result rows
// surface it so repeated traffic is attributable downstream.
//
// The function is part of the serving contract: changing it invalidates every
// persisted key derived from it, so the golden value pinned in
// tests/engine/instance_hash_test.cpp must only change intentionally.
#pragma once

#include <cstdint>
#include <string>

#include "sched/instance.hpp"

namespace bisched {

std::uint64_t instance_hash(const UniformInstance& inst);
std::uint64_t instance_hash(const UnrelatedInstance& inst);

// 16 lowercase hex digits, zero-padded — the form result rows carry.
std::string hash_hex(std::uint64_t h);

}  // namespace bisched
