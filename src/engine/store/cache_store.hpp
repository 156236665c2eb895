// CacheStore: the persistent half of the engine's warm state.
//
// A CacheStore owns one directory and hands out one DiskTier per
// *namespace* — a named, versioned, flagged key→value map ("profile",
// "result") that survives the process. Each namespace is two files:
//
//   <name>.snap     snapshot — header + every entry, rewritten atomically
//                   (tmp + rename) by compact()
//   <name>.journal  append journal — header + entries put() since the last
//                   compaction, flushed on demand
//
// Both files share one record format (key/value length prefixes, raw bytes,
// an FNV-1a checksum trailer), and the header pins a magic, the namespace's
// value-schema version, and a semantic flag word. Load order is snapshot
// then journal (later puts win); a header mismatch REJECTS the file — a
// persisted result is only valid under the exact codec and semantics it was
// written with, so a version bump is a clean cold start, never a
// misdecoded warm one. A torn journal tail (short record or checksum
// mismatch, the crash-mid-append case) is truncated at the last good record
// and appending resumes there; everything before the tear is served.
//
// Tiering and thread safety: a DiskTier is the level-2 map BEHIND an
// in-memory LruMap tier (engine/tiered_cache.hpp owns the pairing). It is
// deliberately NOT thread-safe — the owning cache already serializes every
// call under its mutex, exactly like LruMap.
// Entries live in memory as encoded blobs (the decode cost is paid only on
// a disk-tier hit, once, after which the value sits in the memory tier).
//
// Write lease: interleaved journal appends from two processes would corrupt
// each other, so a store directory has ONE writer. open() takes a `LOCK`
// file (O_EXCL, containing the owner pid; mtime refreshed by heartbeat(),
// which WarmState::flush forwards). A second opener finds the lock held and
// degrades to READ-ONLY — tiers load and serve disk hits, but journals are
// never opened, snapshots never rewritten, and lease_warning() carries the
// stderr-worthy explanation. A lease whose owner pid is dead (or whose
// heartbeat is an hour stale — a survivor from SIGKILL on another boot) is
// taken over. The owner releases the lease in the destructor.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bisched::engine::store {

// Per-request cache provenance, surfaced in result rows as
// "miss" / "hit-memory" / "hit-disk" (see tier_label).
enum class CacheTier { kMiss, kMemory, kDisk };

const char* tier_label(CacheTier tier);

struct NamespaceConfig {
  std::string name;          // file stem inside the store directory
  std::uint32_t schema = 1;  // value codec version (engine/store/codec.hpp)
  std::uint64_t flags = 0;   // semantic flags; any mismatch rejects the files
};

// What load() found — surfaced on stderr by the CLI so a rejected or torn
// store is visible, not silent.
struct LoadReport {
  std::size_t snapshot_entries = 0;
  std::size_t journal_entries = 0;
  std::size_t torn_bytes = 0;  // journal bytes dropped as a torn tail
  bool snapshot_rejected = false;
  bool journal_rejected = false;
  std::string message;  // nonempty iff something was rejected/truncated
};

class DiskTier {
 public:
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  // nullptr when absent. The blob is owned by the tier; it is invalidated
  // by the next put() with the same key.
  const std::string* get(const std::string& key) const;

  // Inserts or overwrites, appending the record to the journal. Journal
  // writes are buffered; call flush() to push them to the OS.
  void put(const std::string& key, std::string value);

  void flush();

  // Rewrites the snapshot from the in-memory map (tmp + rename) and resets
  // the journal to an empty header. Crash-ordering is safe at every point:
  // an interrupted compaction leaves either the old snapshot + full journal
  // or the new snapshot + a journal whose replayed entries are idempotent
  // re-puts. Returns false with *error on I/O failure.
  bool compact(std::string* error = nullptr);

  // Visits every entry, unordered. For introspection surfaces (`stats`
  // listings), not the serving path — the serving tiers are looked up by
  // key, never walked.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, value] : map_) fn(key, value);
  }

  std::size_t entries() const { return map_.size(); }
  std::uint64_t journal_appends() const { return journal_appends_; }
  // False when the store lost the write-lease race: entries serve, puts are
  // memory-only and never persisted.
  bool writable() const { return writable_; }
  const NamespaceConfig& config() const { return config_; }
  const LoadReport& load_report() const { return load_report_; }

 private:
  friend class CacheStore;

  DiskTier(std::string dir, NamespaceConfig config, bool writable);
  void load();

  std::string snapshot_path() const;
  std::string journal_path() const;
  // One-time loud report when a journal write/flush fails (sticky badbit):
  // silent persistence loss must not masquerade as durability.
  void check_journal(const char* what);
  // Parses one store file into map_; returns the byte offset past the last
  // valid record (0 when the file is absent or its header was rejected).
  std::uint64_t load_file(const std::string& path, std::string_view magic,
                          bool* rejected, std::size_t* entries) const;
  bool open_journal_at(std::uint64_t valid_size);

  std::string dir_;
  NamespaceConfig config_;
  bool writable_ = true;  // false under a lost lease: serve, never touch disk
  mutable std::unordered_map<std::string, std::string> map_;
  std::ofstream journal_;
  std::uint64_t journal_appends_ = 0;
  bool journal_warned_ = false;
  LoadReport load_report_;
};

// One directory of namespaces. open() creates the directory if needed and
// fails (nullptr + *error) when it cannot — a mistyped --store path must
// not silently run memory-only.
class CacheStore {
 public:
  static std::unique_ptr<CacheStore> open(const std::string& dir, std::string* error);
  ~CacheStore();  // releases the write lease if this process holds it

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  // Opens (and loads) a namespace; the returned tier is owned by the store
  // and lives until the store is destroyed. The load report describes any
  // rejected/torn files. Tiers of a read-only store serve their loaded
  // entries but never write.
  DiskTier* open_namespace(const NamespaceConfig& config);

  const std::string& dir() const { return dir_; }

  // True when another live process held the write lease at open(): this
  // handle serves reads but persists nothing. lease_warning() explains.
  bool read_only() const { return read_only_; }
  const std::string& lease_warning() const { return lease_warning_; }

  // Refreshes the lease file's mtime — the liveness signal a *future*
  // opener checks before declaring the lease stale. Called from
  // WarmState::flush, i.e. at least once per serve flush interval. No-op
  // without the lease.
  void heartbeat();

 private:
  explicit CacheStore(std::string dir) : dir_(std::move(dir)) {}
  void acquire_lease();
  std::string lease_path() const;

  std::string dir_;
  bool read_only_ = false;
  bool owns_lease_ = false;
  std::string lease_warning_;
  std::vector<std::unique_ptr<DiskTier>> tiers_;
};

}  // namespace bisched::engine::store

namespace bisched::engine {
// The provenance vocabulary is used across the whole engine (responses,
// caches, serve stats); lift it out of the store namespace. DiskTier rides
// along so cache signatures stay unqualified (ResultCache has a member
// function named `store`, which would otherwise shadow the namespace).
using store::CacheTier;
using store::DiskTier;
using store::tier_label;
}  // namespace bisched::engine
