// The traced run's in-process half: spans recorded by the benchmark around
// its own calls into each layer's public functions, on the workload's own
// request stream.
//
// Per request k (span rid = k) the ledger records these root spans:
//   api.request          api::run_request on a warm state in the workload's
//                        cache state (the whole in-process request)
//   request              the same request decomposed, on a second warm state
//                        kept in lock step:
//     io.parse             parse_instance of the text the program received
//     sched.hash           instance_hash
//     engine.probe         engine::probe — the profile-cache miss cost
//     engine.cache.profile profile-cache read (hash + probe on a miss)
//     engine.cache.result  result-cache read
//     engine.solve         solve_auto, on a result miss
//     engine.cache.store   result-cache insert, on a result miss
//     api.render           encode_response_json of the api.request reply
//   engine.solve         once per distinct instance the request path never
//                        solved (warm hits): the miss cost
//   core                 once per distinct instance: each kernel the
//                        portfolio tried, called directly —
//     core.exact_bb        exact_*_bb under the engine's node budget
//                          (failed = truncated or infeasible: fell through)
//     core.alg1            alg1_sqrt_approx
//     core.r2_exact        r2_exact_bipartite
// A kernel the workload never reaches is timed instead on three seeded
// calibration instances under a `calibration` root (detail "calib"), so each
// kernel has a figure on every workload.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t rid = 0;  // request id (stream index k)
  int parent = -1;        // index into the log, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool failed = false;     // the call did not produce the answer
  std::int64_t bytes = 0;  // input bytes (io.parse)
  std::string detail;      // cache tier, solver, "calib"
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  int begin(const std::string& name, std::uint64_t rid, int parent = -1);
  void end(int id);
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the part of it the span's children cover.
  std::vector<double> self_ms() const;
  // One JSON object per span (name, rid, parent, start/end in µs from the
  // first span, self µs, failed, bytes, detail).
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// The makespan string the program returned on the wire for request k, or
// nullptr when request k was not sent.
using WireMakespan = std::function<const std::string*(std::uint64_t k)>;

struct LedgerCheck {
  std::size_t checked = 0;
  std::vector<std::string> failures;
};

// Replays requests k = first, first + 1, ... in process until `seconds` pass or
// `max_requests` are done (at least `min_requests`). Warms both states with
// the workload's warm-up pass first. Each schedule is checked: validate()
// must accept it and its makespan() must equal the reply's and the wire's.
void run_ledger(const Workload& w, std::uint64_t first, double seconds, std::size_t min_requests,
                std::size_t max_requests, const WireMakespan& wire, SpanLog& log,
                LedgerCheck* check);

// Per-span-name rows: count, busy ms, self ms, failures.
std::string layer_table(const SpanLog& log);

}  // namespace perfbench
