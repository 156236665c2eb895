// BatchRunner: solve a directory or manifest of instances concurrently,
// streaming result rows as they complete.
//
// A batch row IS a v1 SolveResponse (engine/api.hpp): the runner constructs
// a SolveRequest per instance path, executes it through api::run_request —
// the same path CLI `solve` and the serve sessions take — and stamps the
// input-order `seq`. Serialization (CSV and JSON Lines) is the api codec;
// this module adds no field emission of its own.
//
// The pipeline is a bounded work queue, not collect-then-write: `threads`
// workers pull the next input index from a shared atomic cursor, solve it,
// and hand the finished row to a sink under a serialization mutex — so the
// first rows reach the output while later instances are still solving, and
// memory stays O(threads), independent of corpus size. Rows carry their
// input-order sequence id (`seq`), which makes output order a presentation
// detail: row *content* (seq, hash, solver, makespan, ...) is identical at
// any thread count; only completion order, the measured wall_ms
// (BatchOptions::stable_output zeroes it for byte-level comparisons), and —
// for corpora with duplicate-content instances — the per-row cache hit/miss
// attribution vary (which duplicate probes first depends on worker
// scheduling; the hash and every solver field still match).
//
// Probing and solving go through one WarmState (engine/store/warm_state.hpp
// — probe cache + result cache, optionally disk-tiered behind a --store
// directory): each row records the instance's stable content hash and which
// tier served its profile (`cache`) and its full solve (`solve_cache`) —
// hit-memory / hit-disk / miss — so repeated traffic, and what it cost, is
// visible in the output. A batch pointed at a populated store answers its
// repeats from disk before solving anything.
//
// Sharding: `--shard=i/n` fleets split a corpus by taking every n-th entry
// of the expanded path list (round-robin by index, after the deterministic
// directory sort) — shards are disjoint, exhaustive, and balanced even when
// a manifest is sorted by instance size.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/api.hpp"
#include "engine/registry.hpp"
#include "engine/solver.hpp"
#include "engine/store/warm_state.hpp"
#include "io/format.hpp"

namespace bisched::engine {

// A batch row is exactly the engine's response value type; the alias keeps
// the batch-side vocabulary (and a decade of call sites) intact.
using BatchRow = SolveResponse;

// A shard assignment i/n: this runner handles entries {i, i+n, i+2n, ...} of
// the expanded path list. The n shards partition any corpus (disjoint and
// exhaustive); index 0/1 is the whole corpus.
struct Shard {
  int index = 0;
  int count = 1;

  bool valid() const { return count >= 1 && index >= 0 && index < count; }
};

struct BatchOptions {
  // Registry solver name, or "auto" for portfolio dispatch per instance.
  std::string alg = "auto";
  SolveOptions solve;
  unsigned threads = 0;  // 0 = default_thread_count()
  Shard shard;
  // Zero the measured wall_ms in rows so output is byte-identical (modulo
  // row order) across thread counts — for diffing and the determinism tests.
  bool stable_output = false;
};

// Expands `path`: a directory yields every regular file in it (sorted by
// name); a manifest file yields one instance path per non-comment line,
// resolved relative to the manifest's directory. Returns an empty vector and
// sets *error on failure.
std::vector<std::string> collect_instance_paths(const std::string& path, std::string* error);

// Entries of `paths` assigned to `shard`, in input order. Requires
// shard.valid().
std::vector<std::string> shard_paths(const std::vector<std::string>& paths,
                                     const Shard& shard);

// Removes every entry of `paths` that refers to `out_path` — by filesystem
// equivalence when both exist, and by normalized absolute path otherwise, so
// a differently-spelled or not-yet-created output file can never be swept up
// as an instance. Returns the number of entries removed.
std::size_t exclude_output_path(std::vector<std::string>& paths,
                                const std::string& out_path);

// True when `path` resolves to a location inside directory `dir` (proper
// descendant, after normalization). The CLI warns on --out inside --dir:
// this run excludes the file, but the *next* sweep of the directory would
// read last run's results as a (failing) instance.
bool path_inside_directory(const std::string& path, const std::string& dir);

class BatchRunner {
 public:
  // `warm` may be shared with other runners / the serve loop (and may carry
  // a persistent store); nullptr gives the runner a private memory-only one.
  BatchRunner(const SolverRegistry& registry, BatchOptions options,
              WarmState* warm = nullptr);

  // Streams each finished row to `sink` as it completes (arbitrary
  // completion order; `row.seq` is the input index). `sink` calls are
  // serialized by an internal mutex. Applies options.shard to `paths`.
  void run_streaming(const std::vector<std::string>& paths,
                     const std::function<void(const BatchRow&)>& sink) const;

  // One row per (sharded) path, sorted back into input order — the
  // collect-everything convenience built on run_streaming.
  std::vector<BatchRow> run(const std::vector<std::string>& paths) const;

  const WarmState& warm() const { return *warm_; }
  const ProfileCache& cache() const { return warm_->profiles(); }
  const ResultCache& results() const { return warm_->results(); }

 private:
  BatchRow run_one(const std::string& path, std::int64_t seq) const;

  const SolverRegistry& registry_;
  BatchOptions options_;
  WarmState* warm_;  // points at owned_warm_ or a shared one
  std::unique_ptr<WarmState> owned_warm_;
};

// Whole-slice convenience used by tests and collect-style callers.
void write_rows_csv(std::ostream& out, std::span<const BatchRow> rows);
void write_rows_json(std::ostream& out, std::span<const BatchRow> rows);

}  // namespace bisched::engine
