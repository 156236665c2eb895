// Binary codecs for the warm-state store (engine/store/cache_store.hpp).
//
// Everything the store persists crosses this module: a fixed little-endian
// byte layout per value type, written by ByteWriter and read back by
// ByteReader with explicit bounds checking (a truncated or hostile blob
// decodes to `false`, never to a crash or a partially-filled value the
// caller can't detect). The encodings are part of the serving contract the
// same way sched/instance_hash is: a persisted entry written by one process
// must decode bit-identically in the next, so the exact byte layouts are
// golden-pinned in tests/engine/store_test.cpp and every change must bump
// the matching k*Schema constant — the store rejects files whose recorded
// schema disagrees, turning a silent format drift into a clean cold start.
//
// This header is also the ONE derivation point of a result-cache key. The
// key is the complete determinant of a solve through the engine — instance
// content hash, algorithm name, eps, run_all, budget_ms — plus the key
// schema version, so serve/batch/CLI cannot each fold a different option
// subset and silently alias (or miss) each other's persisted entries.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "engine/solver.hpp"

namespace bisched::engine::store {

// Bump when the matching encode_* layout changes; the store refuses files
// recorded under any other value, and the key schema folds into every
// persisted result key.
inline constexpr std::uint32_t kProfileSchema = 1;
inline constexpr std::uint32_t kResultSchema = 1;
inline constexpr std::uint32_t kResultKeySchema = 1;
// bench-history values are the raw BENCH_*.json documents; the schema pins
// that convention (engine/store/bench_history.hpp).
inline constexpr std::uint32_t kBenchHistorySchema = 1;

// ----------------------------------------------------------- primitives ---

// Appends fixed-width little-endian fields to a byte string.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// Reads the same layout back; every read returns false (and poisons ok())
// past the end, so decoders are one `&&` chain plus a final at_end() check.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t* v) {
    if (!ok_ || pos_ + 1 > bytes_.size()) return fail();
    *v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (!ok_ || pos_ + 4 > bytes_.size()) return fail();
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (!ok_ || pos_ + 8 > bytes_.size()) return fail();
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool i32(std::int32_t* v) {
    std::uint32_t raw = 0;
    if (!u32(&raw)) return false;
    *v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool i64(std::int64_t* v) {
    std::uint64_t raw = 0;
    if (!u64(&raw)) return false;
    *v = static_cast<std::int64_t>(raw);
    return true;
  }
  bool f64(double* v) {
    std::uint64_t raw = 0;
    if (!u64(&raw)) return false;
    *v = std::bit_cast<double>(raw);
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (pos_ + len > bytes_.size()) return fail();
    v->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------------ keys ---

// The complete determinant of a solve through the engine plus the key
// schema; equality is exact (the doubles come from flag/JSON parsing, so
// NaN/-0.0 subtleties don't arise).
struct ResultKey {
  std::uint64_t hash = 0;  // instance content hash (sched/instance_hash)
  std::string alg;         // registry name or "auto"
  double eps = 0;
  bool run_all = false;
  double budget_ms = 0;
  std::uint32_t schema = kResultKeySchema;

  bool operator==(const ResultKey& other) const = default;
};

// The one construction point every boundary (CLI solve, batch workers,
// serve sessions) goes through: everything in `solve` that can change the
// outcome is folded in (the derived `deadline` is deliberately excluded —
// it restates budget_ms as an absolute time and would never repeat).
ResultKey make_result_key(std::uint64_t instance_hash, const std::string& alg,
                          const SolveOptions& solve);

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const;
};

// Persisted key bytes. Profile entries key by the raw content hash; result
// entries by the full ResultKey layout (schema included, so a key-schema
// bump orphans old entries instead of aliasing them).
std::string encode_profile_key(std::uint64_t instance_hash);
std::string encode_result_key(const ResultKey& key);

// ---------------------------------------------------------------- values ---

std::string encode_profile(const InstanceProfile& profile);
bool decode_profile(std::string_view bytes, InstanceProfile* out);

// Only ok results are ever stored (ResultCache::store in
// engine/store/warm_state.hpp), but the codec round-trips the full struct
// regardless.
std::string encode_result(const SolveResult& result);
bool decode_result(std::string_view bytes, SolveResult* out);

}  // namespace bisched::engine::store
