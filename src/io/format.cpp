#include "io/format.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

namespace bisched {

namespace {

constexpr std::int64_t kMaxJobs = 10'000'000;
constexpr std::int64_t kMaxMachines = 1'000'000;

// The bytes istream extraction treats as whitespace in the "C" locale.
bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

enum class Scan { kToken, kEnd, kNeedMore };

// Finds the next token in buf[*pos..), skipping whitespace and comments (a
// token that starts with '#' comments out the rest of its line), and
// advances *pos past it. Without `eof`, a token or comment touching the end
// of `buf` may still grow: kNeedMore leaves *pos at its first byte. kEnd
// (eof only) means nothing but whitespace and comments is left.
Scan next_token(std::string_view buf, std::size_t* pos, bool eof, std::string_view* token) {
  std::size_t i = *pos;
  while (true) {
    while (i < buf.size() && is_space(buf[i])) ++i;
    if (i == buf.size() || buf[i] != '#') break;
    const auto nl = buf.find('\n', i);
    if (nl == std::string_view::npos && !eof) {
      *pos = i;
      return Scan::kNeedMore;
    }
    i = nl == std::string_view::npos ? buf.size() : nl + 1;
  }
  std::size_t end = i;
  while (end < buf.size() && !is_space(buf[end])) ++end;
  if (end == buf.size() && !eof) {
    *pos = i;
    return Scan::kNeedMore;
  }
  *pos = end;
  if (i == end) return Scan::kEnd;
  *token = buf.substr(i, end - i);
  return Scan::kToken;
}

// strtoll's base-10 rules on the token read as a C string (it ends at the
// first NUL): an optional sign, at least one digit, nothing else, no
// overflow.
bool to_int(std::string_view token, std::int64_t* out) {
  token = token.substr(0, token.find('\0'));
  const bool negative = !token.empty() && token[0] == '-';
  std::size_t i = !token.empty() && (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (i == token.size()) return false;
  const std::uint64_t limit = std::uint64_t{INT64_MAX} + (negative ? 1 : 0);
  std::uint64_t value = 0;
  for (; i < token.size(); ++i) {
    const unsigned digit = static_cast<unsigned char>(token[i]) - unsigned{'0'};
    if (digit > 9 || value > (limit - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = static_cast<std::int64_t>(negative ? 0 - value : value);
  return true;
}

std::string expected(const char* literal, std::optional<std::string_view> token) {
  return std::string("expected '") + literal + "', got " +
         (token.has_value() ? "'" + std::string(*token) + "'" : "end of input");
}

// The value after a count keyword, range-checked.
bool read_count(std::optional<std::string_view> token, const char* keyword, std::int64_t lo,
                std::int64_t hi, std::int64_t* out, std::string* error) {
  if (!token.has_value() || !to_int(*token, out)) {
    *error = std::string("expected an integer after '") + keyword + "'";
    return false;
  }
  if (*out < lo || *out > hi) {
    *error = std::string("'") + keyword + "' value " + std::to_string(*out) +
             " out of range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  return true;
}

std::string expected_ints(std::int64_t count, const char* what) {
  return "expected " + std::to_string(count) + " integers for " + what;
}

bool all_at_least(const std::vector<std::int64_t>& values, std::int64_t lo) {
  return std::all_of(values.begin(), values.end(), [lo](std::int64_t x) { return x >= lo; });
}

std::string read_all(std::istream& in) {
  std::string text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

}  // namespace

InstanceParser::Status InstanceParser::feed(std::string_view buf, std::size_t* pos, bool eof) {
  while (step_ != Step::kDone && step_ != Step::kFailed) {
    std::string_view token;
    const Scan scan = next_token(buf, pos, eof, &token);
    if (scan == Scan::kNeedMore) return Status::kNeedMore;
    on_token(scan == Scan::kToken ? std::optional(token) : std::nullopt);
  }
  return step_ == Step::kDone ? Status::kDone : Status::kError;
}

ParsedInstance InstanceParser::take() {
  ParsedInstance result = std::move(result_);
  *this = InstanceParser();
  return result;
}

void InstanceParser::expect(std::optional<std::string_view> token, const char* literal,
                            Step next) {
  if (token != literal) return fail(expected(literal, token));
  step_ = next;
}

bool InstanceParser::count(std::optional<std::string_view> token, const char* keyword,
                           std::int64_t lo, std::int64_t hi, std::int64_t* out) {
  if (read_count(token, keyword, lo, hi, out, &result_.error)) return true;
  step_ = Step::kFailed;
  return false;
}

void InstanceParser::fail(std::string error) {
  result_.error = std::move(error);
  step_ = Step::kFailed;
}

void InstanceParser::on_token(std::optional<std::string_view> token) {
  std::int64_t value = 0;
  const bool is_int = token.has_value() && to_int(*token, &value);
  switch (step_) {
    case Step::kMagic:
      return expect(token, "bisched", Step::kKind);
    case Step::kKind:
      if (token != "uniform" && token != "unrelated") {
        return fail("expected 'uniform' or 'unrelated' header");
      }
      uniform_ = token == "uniform";
      step_ = Step::kVersion;
      return;
    case Step::kVersion:
      return expect(token, "v1", Step::kJobsKw);
    case Step::kJobsKw:
      return expect(token, "jobs", Step::kJobs);
    case Step::kJobs:
      if (!count(token, "jobs", 0, kMaxJobs, &n_)) return;
      step_ = uniform_ ? Step::kPKw : Step::kMachinesKw;
      return;

    case Step::kPKw:
      return expect(token, "p", n_ == 0 ? Step::kSpeedsKw : Step::kP);
    case Step::kP:
      if (!is_int) return fail(expected_ints(n_, "p"));
      p_.push_back(value);
      if (static_cast<std::int64_t>(p_.size()) < n_) return;
      if (!all_at_least(p_, 1)) return fail("processing requirements must be >= 1");
      step_ = Step::kSpeedsKw;
      return;
    case Step::kSpeedsKw:
      return expect(token, "speeds", Step::kSpeeds);
    case Step::kSpeeds:
      if (!count(token, "speeds", 1, kMaxMachines, &m_)) return;
      step_ = Step::kSpeedValues;
      return;
    case Step::kSpeedValues:
      if (!is_int) return fail(expected_ints(m_, "speeds"));
      speeds_.push_back(value);
      if (static_cast<std::int64_t>(speeds_.size()) < m_) return;
      if (!all_at_least(speeds_, 1)) return fail("speeds must be >= 1");
      step_ = Step::kEdgesKw;
      return;

    case Step::kMachinesKw:
      return expect(token, "machines", Step::kMachines);
    case Step::kMachines:
      if (!count(token, "machines", 1, kMaxMachines, &m_)) return;
      step_ = Step::kTimesKw;
      return;
    case Step::kTimesKw:
      return expect(token, "times", n_ == 0 ? Step::kEdgesKw : Step::kTimes);
    case Step::kTimes:
      if (!is_int) return fail(expected_ints(n_, "times row"));
      if (times_.empty() || static_cast<std::int64_t>(times_.back().size()) == n_) {
        times_.emplace_back();
      }
      times_.back().push_back(value);
      if (static_cast<std::int64_t>(times_.back().size()) < n_) return;
      if (!all_at_least(times_.back(), 0)) return fail("times must be >= 0");
      if (static_cast<std::int64_t>(times_.size()) == m_) step_ = Step::kEdgesKw;
      return;

    case Step::kEdgesKw:
      return expect(token, "edges", Step::kEdges);
    case Step::kEdges:
      if (!count(token, "edges", 0, n_ * n_, &k_)) return;
      graph_.emplace(static_cast<int>(n_));
      if (k_ == 0) return finish();
      step_ = Step::kEdgeU;
      return;
    case Step::kEdgeU:
    case Step::kEdgeV:
      if (!is_int) return fail("expected " + std::to_string(k_) + " edge lines");
      if (step_ == Step::kEdgeU) {
        edge_u_ = value;
        step_ = Step::kEdgeV;
        return;
      }
      if (edge_u_ < 0 || edge_u_ >= n_ || value < 0 || value >= n_ || edge_u_ == value) {
        return fail("bad edge (" + std::to_string(edge_u_) + ", " + std::to_string(value) + ")");
      }
      graph_->add_edge(static_cast<int>(edge_u_), static_cast<int>(value));
      if (graph_->num_edges() == k_) return finish();
      step_ = Step::kEdgeU;
      return;

    case Step::kDone:
    case Step::kFailed:
      return;
  }
}

void InstanceParser::finish() {
  if (uniform_) {
    result_.uniform = make_uniform_instance(std::move(p_), std::move(speeds_), std::move(*graph_));
  } else {
    // With no jobs no value arrives, so the m empty rows are made here.
    times_.resize(static_cast<std::size_t>(m_));
    result_.unrelated = make_unrelated_instance(std::move(times_), std::move(*graph_));
  }
  step_ = Step::kDone;
}

ParsedInstance parse_instance(std::string_view text) {
  InstanceParser parser;
  std::size_t pos = 0;
  parser.feed(text, &pos, /*eof=*/true);
  return parser.take();
}

ParsedInstance parse_instance(std::istream& in) { return parse_instance(read_all(in)); }

std::optional<Schedule> parse_schedule(std::istream& in, std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  const std::string text = read_all(in);
  std::size_t pos = 0;
  const auto next = [&]() -> std::optional<std::string_view> {
    std::string_view token;
    if (next_token(text, &pos, /*eof=*/true, &token) == Scan::kEnd) return std::nullopt;
    return token;
  };
  for (const char* literal : {"bisched", "schedule", "v1", "jobs"}) {
    const auto token = next();
    if (token != literal) {
      *err = expected(literal, token);
      return std::nullopt;
    }
  }
  std::int64_t n = 0;
  if (!read_count(next(), "jobs", 0, kMaxJobs, &n, err)) return std::nullopt;
  if (const auto token = next(); token != "machine_of") {
    *err = expected("machine_of", token);
    return std::nullopt;
  }
  std::vector<std::int64_t> raw;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto token = next();
    std::int64_t value = 0;
    if (!token.has_value() || !to_int(*token, &value)) {
      *err = expected_ints(n, "machine_of");
      return std::nullopt;
    }
    raw.push_back(value);
  }
  Schedule s;
  s.machine_of.reserve(raw.size());
  for (std::int64_t x : raw) {
    if (x < 0 || x > INT32_MAX) {
      *err = "machine index out of range";
      return std::nullopt;
    }
    s.machine_of.push_back(static_cast<int>(x));
  }
  return s;
}

namespace {

void write_edges(std::ostream& out, const Graph& g) {
  out << "edges " << g.num_edges() << "\n";
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.neighbors(u)) {
      if (v > u) out << u << " " << v << "\n";
    }
  }
}

}  // namespace

void write_instance(std::ostream& out, const UniformInstance& inst) {
  out << "bisched uniform v1\n";
  out << "jobs " << inst.num_jobs() << "\n";
  out << "p";
  for (std::int64_t x : inst.p) out << " " << x;
  out << "\nspeeds " << inst.num_machines() << "\n";
  bool first = true;
  for (std::int64_t s : inst.speeds) {
    out << (first ? "" : " ") << s;
    first = false;
  }
  out << "\n";
  write_edges(out, inst.conflicts);
}

void write_instance(std::ostream& out, const UnrelatedInstance& inst) {
  out << "bisched unrelated v1\n";
  out << "jobs " << inst.num_jobs() << "\n";
  out << "machines " << inst.num_machines() << "\n";
  out << "times\n";
  for (const auto& row : inst.times) {
    bool first = true;
    for (std::int64_t x : row) {
      out << (first ? "" : " ") << x;
      first = false;
    }
    out << "\n";
  }
  write_edges(out, inst.conflicts);
}

void write_schedule(std::ostream& out, const Schedule& schedule) {
  out << "bisched schedule v1\n";
  out << "jobs " << schedule.machine_of.size() << "\n";
  out << "machine_of";
  for (int machine : schedule.machine_of) out << " " << machine;
  out << "\n";
}

}  // namespace bisched
