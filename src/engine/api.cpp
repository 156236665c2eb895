#include "engine/api.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "engine/portfolio.hpp"
#include "io/jsonl.hpp"
#include "sched/instance_hash.hpp"
#include "sched/schedule.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bisched::engine {

SolveOptions resolved_options(const SolveRequest& req, const SolveOptions& defaults) {
  SolveOptions out = defaults;
  if (req.has_eps) out.eps = req.eps;
  if (req.has_run_all) out.run_all = req.run_all;
  if (req.has_budget_ms) out.budget_ms = req.budget_ms;
  return out;
}

// ----------------------------------------------------------------- codec ---

std::string encode_request_json(const SolveRequest& req) {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion;
  if (!req.id.empty()) out << ", \"id\": " << json_quote(req.id);
  if (!req.path.empty()) out << ", \"path\": " << json_quote(req.path);
  if (req.has_inline_text) out << ", \"instance\": " << json_quote(req.inline_text);
  if (!req.alg.empty()) out << ", \"alg\": " << json_quote(req.alg);
  if (req.has_eps) out << ", \"eps\": " << fmt_double_exact(req.eps);
  if (req.has_run_all) out << ", \"all\": " << (req.run_all ? "true" : "false");
  if (req.has_budget_ms) out << ", \"budget_ms\": " << fmt_double_exact(req.budget_ms);
  if (req.want_spans) out << ", \"spans\": true";
  out << '}';
  return out.str();
}

namespace {

bool parse_double_field(const std::string& text, double* out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

std::optional<SolveRequest> decode_request_json(const std::string& line,
                                                std::string* error,
                                                std::string* salvaged_id) {
  std::string local;
  std::string& err = error != nullptr ? *error : local;
  const auto object = parse_flat_json_object(line, &err);
  if (!object.has_value()) return std::nullopt;
  if (salvaged_id != nullptr) {
    const auto id_it = object->find("id");
    if (id_it != object->end()) *salvaged_id = id_it->second;
  }

  // Unknown keys are rejected, not skipped: a typo like "ep" or "algo"
  // would otherwise solve with defaults and report success.
  for (const auto& [key, value] : *object) {
    if (key != "v" && key != "id" && key != "path" && key != "instance" &&
        key != "alg" && key != "eps" && key != "all" && key != "budget_ms" &&
        key != "spans") {
      err = "unknown key \"" + key + "\"";
      return std::nullopt;
    }
  }
  const auto get = [&](const char* key) -> const std::string* {
    const auto it = object->find(key);
    return it != object->end() ? &it->second : nullptr;
  };

  SolveRequest req;
  if (const auto* v = get("v")) {
    if (*v != std::to_string(kApiVersion)) {
      err = "unsupported api version \"" + *v + "\" (this engine speaks v" +
            std::to_string(kApiVersion) + ")";
      return std::nullopt;
    }
  }
  if (const auto* id = get("id")) req.id = *id;
  if (const auto* alg = get("alg")) req.alg = *alg;
  if (const auto* eps = get("eps")) {
    if (!parse_double_field(*eps, &req.eps)) {
      err = "eps is not a number";
      return std::nullopt;
    }
    req.has_eps = true;
  }
  if (const auto* all = get("all")) {
    if (*all != "true" && *all != "false") {
      err = "all must be true or false";
      return std::nullopt;
    }
    req.has_run_all = true;
    req.run_all = *all == "true";
  }
  if (const auto* budget = get("budget_ms")) {
    if (!parse_double_field(*budget, &req.budget_ms)) {
      err = "budget_ms is not a number";
      return std::nullopt;
    }
    req.has_budget_ms = true;
  }
  if (const auto* spans = get("spans")) {
    if (*spans != "true" && *spans != "false") {
      err = "spans must be true or false";
      return std::nullopt;
    }
    req.want_spans = *spans == "true";
  }
  const auto* path = get("path");
  const auto* inline_text = get("instance");
  if ((path != nullptr) == (inline_text != nullptr)) {
    err = "exactly one of \"path\" / \"instance\" required";
    return std::nullopt;
  }
  if (path != nullptr) {
    req.path = *path;
  } else {
    req.inline_text = *inline_text;
    req.has_inline_text = true;
  }
  return req;
}

// Empty when the instance never reached the cache (open/parse failure);
// otherwise the serving tier: "hit-memory" / "hit-disk" / "miss".
const char* response_cache_label(const SolveResponse& r) {
  if (r.instance_hash.empty()) return "";
  return tier_label(r.cache_tier);
}

// Empty when no result cache was consulted (parse failure).
const char* response_result_label(const SolveResponse& r) {
  if (r.instance_hash.empty() || !r.result_cache_used) return "";
  return tier_label(r.result_tier);
}

void write_response_json(std::ostream& out, const SolveResponse& r) {
  out << "{\"v\": " << kApiVersion;
  if (!r.id.empty()) out << ", \"id\": " << json_quote(r.id);
  out << ", \"seq\": " << r.seq << ", \"file\": " << json_quote(r.file)
      << ", \"status\": " << (r.ok ? "\"ok\"" : "\"error\"")
      << ", \"model\": " << json_quote(r.model) << ", \"jobs\": " << r.jobs
      << ", \"machines\": " << r.machines
      << ", \"hash\": " << json_quote(r.instance_hash)
      << ", \"cache\": " << json_quote(response_cache_label(r))
      << ", \"solve_cache\": " << json_quote(response_result_label(r))
      << ", \"solver\": " << json_quote(r.solver)
      << ", \"guarantee\": " << json_quote(r.guarantee)
      << ", \"makespan\": " << json_quote(r.makespan)
      << ", \"makespan_value\": " << fmt_double_exact(r.makespan_value)
      << ", \"wall_ms\": " << fmt_double_exact(r.wall_ms)
      << ", \"elapsed_ms\": " << fmt_double_exact(r.elapsed_ms)
      << ", \"error\": " << json_quote(r.error);
  if (!r.trace_id.empty()) out << ", \"trace_id\": " << json_quote(r.trace_id);
  if (r.show_spans && r.trace != nullptr) {
    out << ", \"spans\": " << r.trace->spans_json(r.stable_timing);
  }
  out << "}\n";
}

std::string encode_response_json(const SolveResponse& r) {
  std::ostringstream out;
  write_response_json(out, r);
  return out.str();
}

void write_response_header_csv(std::ostream& out) {
  out << "seq,file,status,model,jobs,machines,hash,cache,solve_cache,solver,guarantee,"
         "makespan,makespan_value,wall_ms,elapsed_ms,error\n";
}

void write_response_csv(std::ostream& out, const SolveResponse& r) {
  out << r.seq << ',' << csv_quote(r.file) << ',' << (r.ok ? "ok" : "error") << ','
      << csv_quote(r.model) << ',' << r.jobs << ',' << r.machines << ','
      << csv_quote(r.instance_hash) << ',' << response_cache_label(r) << ','
      << response_result_label(r) << ',' << csv_quote(r.solver) << ','
      << csv_quote(r.guarantee) << ',' << csv_quote(r.makespan) << ','
      << fmt_double_exact(r.makespan_value) << ',' << fmt_double_exact(r.wall_ms)
      << ',' << fmt_double_exact(r.elapsed_ms) << ',' << csv_quote(r.error) << '\n';
}

// ------------------------------------------------------------- execution ---

namespace {

// The outcome fields every answered row shares, whether the result was
// solved, read from the result cache, or reached through the fingerprint
// index.
void finish_row(SolveResponse& row, SolveResult result, SolveResult* full) {
  if (!result.ok) {
    row.error = result.error;
    return;
  }
  row.ok = true;
  row.solver = result.solver;
  row.guarantee = result.guarantee;
  row.makespan = result.cmax.to_string();
  row.makespan_value = result.cmax.to_double();
  if (full != nullptr) *full = std::move(result);
}

// run_parsed, also reporting the instance's content hash for the
// fingerprint index (0 when the request never reached the caches, or when
// its cached result failed verification and the answer must not be indexed).
SolveResponse run_parsed_hashed(const SolverRegistry& registry, WarmState& warm,
                                const std::string& alg, const SolveOptions& solve,
                                const ParsedInstance& parsed, SolveResult* full,
                                telemetry::TraceSpan* parent, std::uint64_t* hash) {
  SolveResponse row;
  Timer timer;
  if (!parsed.ok()) {
    row.error = "parse error: " + parsed.error;
    return row;
  }

  SolveResult result;
  const auto dispatch = [&](const auto& inst) {
    row.jobs = inst.num_jobs();
    row.machines = inst.num_machines();
    telemetry::TraceSpan* probe_span =
        parent != nullptr ? parent->child("probe") : nullptr;
    const CachedProfile cached = warm.profiles().profile(inst);
    if (probe_span != nullptr) {
      probe_span->set_detail(tier_label(cached.tier));
      probe_span->end();
    }
    row.instance_hash = hash_hex(cached.hash);
    *hash = cached.hash;
    row.cache_tier = cached.tier;
    row.result_cache_used = true;
    // The ONE key derivation every boundary shares (engine/store/codec.hpp):
    // instance hash + alg + eps + run_all + budget_ms + key schema.
    const ResultKey key = make_result_key(cached.hash, alg, solve);
    CacheTier tier = CacheTier::kMiss;
    telemetry::TraceSpan* result_span =
        parent != nullptr ? parent->child("result") : nullptr;
    auto hit = warm.results().lookup(key, &tier);
    if (result_span != nullptr) {
      result_span->set_detail(tier_label(tier));
      result_span->end();
    }
    // A hit is served only if its schedule checks out on THIS instance: the
    // key is a 64-bit hash, and a colliding entry belongs to another one.
    // A failed check is solved afresh and neither stored nor indexed, so
    // the entry still answers the instance it belongs to.
    if (hit.has_value()) {
      if (hit->ok && validate(inst, hit->schedule) == ScheduleStatus::kValid &&
          Rational(makespan(inst, hit->schedule)) == hit->cmax) {
        row.result_tier = tier;
        return std::move(*hit);
      }
      warm.telemetry().cache_verify_failures().inc();
      *hash = 0;
    }
    telemetry::TraceSpan* solve_span =
        parent != nullptr ? parent->child("solve") : nullptr;
    SolveOptions traced = solve;
    traced.trace = solve_span;
    SolveResult fresh = alg == "auto"
                            ? solve_auto(registry, inst, traced, cached.profile)
                            : solve_named(registry, alg, inst, traced, cached.profile);
    if (solve_span != nullptr) {
      if (!fresh.solver.empty()) solve_span->set_detail(fresh.solver);
      solve_span->end();
    }
    if (!hit.has_value()) {
      telemetry::ScopedSpan store_span(parent, "store");
      warm.results().store(key, fresh);  // failures are not memoized
    }
    return fresh;
  };
  if (parsed.uniform.has_value()) {
    row.model = "uniform";
    result = dispatch(*parsed.uniform);
  } else {
    row.model = "unrelated";
    result = dispatch(*parsed.unrelated);
  }

  row.wall_ms = timer.millis();
  finish_row(row, std::move(result), full);
  return row;
}

// The parse-free answer for a body the fingerprint index knows: both the
// profile (for the `cache` label and its counters) and the result must
// still be cached, else nullopt and nothing was counted — the caller falls
// through to the full path, which counts its own lookups exactly as if the
// index did not exist. contains() checks before anything is counted; only
// an eviction racing between it and the get counts an extra miss. These hits skip run_parsed_hashed's verified-hit
// check, so a result stored under a colliding 64-bit instance hash would be
// served unchecked; the 128-bit key that would close this is still open.
std::optional<SolveResponse> answer_known(WarmState& warm, const FingerprintEntry& entry,
                                          const std::string& alg, const SolveOptions& solve,
                                          SolveResult* full, telemetry::TraceSpan* span) {
  Timer timer;
  if (!warm.profiles().contains(entry.hash)) return std::nullopt;
  const ResultKey key = make_result_key(entry.hash, alg, solve);
  CacheTier result_tier = CacheTier::kMiss;
  telemetry::TraceSpan* result_span = span->child("result");
  std::optional<SolveResult> hit;
  if (warm.results().contains(key)) hit = warm.results().lookup(key, &result_tier);
  result_span->set_detail(tier_label(result_tier));
  result_span->end();
  if (!hit.has_value()) return std::nullopt;

  SolveResponse row;
  row.model = entry.unrelated ? "unrelated" : "uniform";
  row.jobs = entry.jobs;
  row.machines = entry.machines;
  row.instance_hash = hash_hex(entry.hash);
  // Counted only now that the answer is certain: a hit (and a disk-tier
  // profile's promotion) exactly as the probe path would have.
  warm.profiles().get(entry.hash, &row.cache_tier);
  row.result_cache_used = true;
  row.result_tier = result_tier;
  row.wall_ms = timer.millis();
  finish_row(row, std::move(*hit), full);
  return row;
}

// A wire source — inline text or a file's bytes — through the fingerprint
// index, falling through to parse + run_parsed when the index cannot
// answer. Successful full-path answers are indexed for the next repeat;
// failures never are.
SolveResponse run_source(const SolverRegistry& registry, WarmState& warm,
                         const SolveRequest& req, const std::string& alg,
                         const SolveOptions& solve, SolveResult* full,
                         telemetry::TraceSpan& root) {
  telemetry::TraceSpan* span = root.child("fingerprint");
  std::string file_bytes;
  const std::string* bytes = &req.inline_text;
  if (!req.has_inline_text) {
    std::ifstream file(req.path, std::ios::binary);
    if (!file) {
      span->end();
      SolveResponse r;
      r.error = "cannot open file";
      return r;
    }
    std::ostringstream text;
    text << file.rdbuf();
    file_bytes = std::move(text).str();
    bytes = &file_bytes;
  }

  FingerprintIndex& index = warm.fingerprints();
  const Digest128 digest = index.digest(*bytes);
  const std::optional<FingerprintEntry> known = index.find(digest);
  if (known.has_value()) {
    if (auto answer = answer_known(warm, *known, alg, solve, full, span)) {
      span->set_detail("hit");
      span->end();
      index.record(true);
      return std::move(*answer);
    }
  }
  // "uncached": the body is known, but its profile was evicted or no result
  // is cached under this request's key (evicted, other options, a failure).
  span->set_detail(known.has_value() ? "uncached" : "miss");
  span->end();
  index.record(false);

  telemetry::TraceSpan* parse_span = root.child("parse");
  const ParsedInstance parsed = parse_instance(*bytes);
  parse_span->end();
  std::uint64_t hash = 0;
  SolveResponse r =
      run_parsed_hashed(registry, warm, alg, solve, parsed, full, &root, &hash);
  if (r.ok && hash != 0) {
    index.insert(digest, {hash, static_cast<std::int32_t>(r.jobs),
                          static_cast<std::int32_t>(r.machines), r.model == "unrelated"});
  }
  return r;
}

}  // namespace

SolveResponse run_parsed(const SolverRegistry& registry, WarmState& warm,
                         const std::string& alg, const SolveOptions& solve,
                         const ParsedInstance& parsed, SolveResult* full,
                         telemetry::TraceSpan* parent) {
  std::uint64_t hash = 0;
  return run_parsed_hashed(registry, warm, alg, solve, parsed, full, parent, &hash);
}

SolveResponse run_request(const SolverRegistry& registry, WarmState& warm,
                          const SolveRequest& req, const std::string& default_alg,
                          const SolveOptions& defaults, SolveResult* full) {
  const std::string& alg = req.alg.empty() ? default_alg : req.alg;
  const SolveOptions options = resolved_options(req, defaults);

  // Every request gets a trace, whether or not the client asked to see it:
  // the serve slow log renders it after the fact, and collection costs a few
  // clock reads next to a solve.
  auto trace = std::make_shared<telemetry::Trace>();
  Timer timer;

  SolveResponse r;
  // The portfolio-only options must not be silently ignored on a named
  // solver — the same rule the CLI enforces on its flags, applied here so
  // every boundary (wire requests included) gets it: a request asking for
  // run-all or a budget that cannot take effect is an error, not an "ok"
  // that quietly solved something else.
  if (options.run_all && alg != "auto") {
    r.error = "\"all\" requires alg \"auto\" (it runs the portfolio)";
  } else if (options.budget_ms != 0 && !options.run_all) {
    r.error = "\"budget_ms\" requires \"all\" (it bounds the run-all portfolio)";
  } else if (req.parsed != nullptr) {
    r = run_parsed(registry, warm, alg, options, *req.parsed, full, &trace->root());
  } else if (req.has_inline_text || !req.path.empty()) {
    r = run_source(registry, warm, req, alg, options, full, trace->root());
  } else {
    r.error = "no instance source in request";
  }
  // A path is the instance's label even when the caller pre-parsed it
  // (CLI solve parses up front for its summary line but still names the file).
  if (!req.path.empty()) r.file = req.path;
  r.id = req.id;

  trace->finish();
  r.elapsed_ms = timer.millis();
  r.trace_id = trace->id();
  r.show_spans = req.want_spans;
  r.trace = std::move(trace);
  telemetry::EngineMetrics& metrics = warm.telemetry();
  metrics.solve_latency_ms().observe(r.elapsed_ms);
  (r.ok ? metrics.solves_ok() : metrics.solves_error()).inc();
  return r;
}

}  // namespace bisched::engine
