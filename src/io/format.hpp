// Plain-text instance and schedule serialization.
//
// The on-disk format (comments start with '#', whitespace-separated):
//
//   bisched uniform v1          bisched unrelated v1        bisched schedule v1
//   jobs <n>                    jobs <n>                    jobs <n>
//   p <n ints>                  machines <m>                machine_of <n ints>
//   speeds <m ints>             times                       # 0-based machines
//   edges <k>                   <m rows of n ints>
//   <k lines: u v>              edges <k>
//                               <k lines: u v>
//
// Parsing never aborts: malformed input yields an error string (the CLI and
// any downstream user gets a diagnosable failure, not a crash). Writers
// produce output that parses back bit-identically (round-trip tested).
//
// One byte tokenizer serves both grammars. InstanceParser is the instance
// grammar in resumable form: feed it a buffer as bytes arrive and it
// consumes whole tokens, building the instance as values land. The serve
// loop feeds socket bytes to it directly; parse_instance runs it once over
// bytes already held.
//
// Allocation rule: arrays grow as their values arrive and are never sized
// from a count the input claims, so a header such as `jobs 10000000` that
// is never followed by values costs nothing. The conflict graph is built
// at `edges`, once every job's values have arrived.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"

namespace bisched {

struct ParsedInstance {
  // Exactly one of these is set on success.
  std::optional<UniformInstance> uniform;
  std::optional<UnrelatedInstance> unrelated;
  std::string error;  // nonempty iff parsing failed

  bool ok() const { return error.empty(); }
};

class InstanceParser {
 public:
  enum class Status { kNeedMore, kDone, kError };

  // Consumes tokens from buf[*pos..), advancing *pos past every consumed
  // token and the whitespace and '#' comments before it; a token touching
  // the end of `buf` is left unconsumed until more bytes arrive. `eof` means
  // none will: the edge token is then complete, and a body that ends early
  // is an error. kNeedMore asks for a longer buffer holding buf[*pos..);
  // the bytes before *pos are never read again and may be discarded. Once
  // kDone or kError is returned, *pos is where the parse stopped (after the
  // last token of the instance, or after the token that broke it) and
  // take() holds the result. Feeding a body in any split gives the same
  // result, error text and stop offset as feeding it whole.
  Status feed(std::string_view buf, std::size_t* pos, bool eof);

  // Hands over the result and resets the parser for the next body.
  ParsedInstance take();

 private:
  enum class Step {
    kMagic, kKind, kVersion, kJobsKw, kJobs,
    kPKw, kP, kSpeedsKw, kSpeeds, kSpeedValues,
    kMachinesKw, kMachines, kTimesKw, kTimes,
    kEdgesKw, kEdges, kEdgeU, kEdgeV,
    kDone, kFailed,
  };

  // `token` is empty at the end of input.
  void on_token(std::optional<std::string_view> token);
  void expect(std::optional<std::string_view> token, const char* literal, Step next);
  bool count(std::optional<std::string_view> token, const char* keyword, std::int64_t lo,
             std::int64_t hi, std::int64_t* out);
  void fail(std::string error);
  void finish();

  Step step_ = Step::kMagic;
  bool uniform_ = false;
  std::int64_t n_ = 0, m_ = 0, k_ = 0, edge_u_ = 0;
  std::vector<std::int64_t> p_, speeds_;
  std::vector<std::vector<std::int64_t>> times_;
  std::optional<Graph> graph_;
  ParsedInstance result_;
};

ParsedInstance parse_instance(std::string_view text);
// Reads the stream to its end, then parses.
ParsedInstance parse_instance(std::istream& in);

std::optional<Schedule> parse_schedule(std::istream& in, std::string* error);

void write_instance(std::ostream& out, const UniformInstance& inst);
void write_instance(std::ostream& out, const UnrelatedInstance& inst);
void write_schedule(std::ostream& out, const Schedule& schedule);

}  // namespace bisched
