// Engine API v1 tests: the request/response codec (round trip, strict
// decoding, option layering) and the golden wire-schema pin — the checked-in
// tests/engine/golden/solve_response_v1.json is the contract every response
// producer (CLI solve --json, batch rows, serve sessions) speaks; accidental
// field drift fails here before any client sees it.
#include "engine/api.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "engine/registry.hpp"
#include "io/jsonl.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

using engine::SolveRequest;
using engine::SolveResponse;

TEST(ApiRequestCodec, RoundTripsEveryField) {
  SolveRequest req;
  req.id = "r-42";
  req.path = "corpus/q.inst";
  req.alg = "q2exact";
  req.has_eps = true;
  req.eps = 0.25;
  req.has_run_all = true;
  req.run_all = true;
  req.has_budget_ms = true;
  req.budget_ms = 125;

  const std::string line = engine::encode_request_json(req);
  EXPECT_NE(line.find("\"v\": 1"), std::string::npos);

  std::string error;
  const auto decoded = engine::decode_request_json(line, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->id, req.id);
  EXPECT_EQ(decoded->path, req.path);
  EXPECT_EQ(decoded->alg, req.alg);
  ASSERT_TRUE(decoded->has_eps);
  EXPECT_DOUBLE_EQ(decoded->eps, 0.25);
  ASSERT_TRUE(decoded->has_run_all);
  EXPECT_TRUE(decoded->run_all);
  ASSERT_TRUE(decoded->has_budget_ms);
  EXPECT_DOUBLE_EQ(decoded->budget_ms, 125);

  // Inline-instance form round-trips too (newlines escaped through the
  // shared json_quote path).
  SolveRequest inline_req;
  inline_req.inline_text = "bisched uniform v1\njobs 1\n";
  inline_req.has_inline_text = true;
  const auto inline_decoded =
      engine::decode_request_json(engine::encode_request_json(inline_req), &error);
  ASSERT_TRUE(inline_decoded.has_value()) << error;
  EXPECT_TRUE(inline_decoded->has_inline_text);
  EXPECT_EQ(inline_decoded->inline_text, inline_req.inline_text);
}

TEST(ApiRequestCodec, VersionIsOptionalButChecked) {
  std::string error;
  // Absent v = v1 (today's serve clients never sent one).
  EXPECT_TRUE(engine::decode_request_json("{\"path\": \"a\"}", &error).has_value())
      << error;
  // A wrong version is rejected up front, not half-interpreted.
  EXPECT_FALSE(engine::decode_request_json("{\"v\": 2, \"path\": \"a\"}", &error));
  EXPECT_NE(error.find("unsupported api version"), std::string::npos);
}

TEST(ApiRequestCodec, RejectsMalformedFrames) {
  std::string error;
  // Unknown keys are rejected, not skipped: a typo'd "ep" must not solve
  // with defaults and report success.
  EXPECT_FALSE(engine::decode_request_json("{\"path\": \"a\", \"ep\": 0.1}", &error));
  EXPECT_NE(error.find("unknown key \"ep\""), std::string::npos);

  EXPECT_FALSE(engine::decode_request_json("{\"path\": \"a\", \"eps\": \"x\"}", &error));
  EXPECT_NE(error.find("eps is not a number"), std::string::npos);

  EXPECT_FALSE(engine::decode_request_json("{\"path\": \"a\", \"all\": 1}", &error));
  EXPECT_NE(error.find("all must be true or false"), std::string::npos);

  // Exactly one source.
  EXPECT_FALSE(engine::decode_request_json("{\"id\": \"x\"}", &error));
  EXPECT_NE(error.find("exactly one of"), std::string::npos);
  EXPECT_FALSE(engine::decode_request_json(
      "{\"path\": \"a\", \"instance\": \"b\"}", &error));
  EXPECT_NE(error.find("exactly one of"), std::string::npos);
}

TEST(ApiOptions, RequestOverridesLayerOverDefaults) {
  engine::SolveOptions defaults;
  defaults.eps = 0.1;
  defaults.run_all = false;
  defaults.budget_ms = 0;

  SolveRequest untouched;
  const auto same = engine::resolved_options(untouched, defaults);
  EXPECT_DOUBLE_EQ(same.eps, 0.1);
  EXPECT_FALSE(same.run_all);

  SolveRequest overriding;
  overriding.has_eps = true;
  overriding.eps = 0.5;
  overriding.has_run_all = true;
  overriding.run_all = true;
  overriding.has_budget_ms = true;
  overriding.budget_ms = 20;
  const auto resolved = engine::resolved_options(overriding, defaults);
  EXPECT_DOUBLE_EQ(resolved.eps, 0.5);
  EXPECT_TRUE(resolved.run_all);
  EXPECT_DOUBLE_EQ(resolved.budget_ms, 20);
}

SolveResponse golden_sample() {
  SolveResponse r;
  r.id = "req-1";
  r.seq = 7;
  r.file = "corpus/a.inst";
  r.ok = true;
  r.model = "uniform";
  r.jobs = 5;
  r.machines = 2;
  r.instance_hash = "00000000deadbeef";
  r.cache_tier = engine::CacheTier::kMemory;
  r.result_cache_used = true;
  r.result_tier = engine::CacheTier::kMiss;
  r.solver = "q2exact";
  r.guarantee = "exact (Thm 4 DP)";
  r.makespan = "7/2";
  r.makespan_value = 3.5;
  r.wall_ms = 0;
  r.elapsed_ms = 0;
  // The telemetry members, pinned deterministically: a fixed trace id and a
  // hand-built span tree matching run_request's taxonomy, rendered with
  // stable timing (every ms = 0) so the golden is byte-reproducible.
  r.trace_id = "t-00000000-1";
  auto trace = std::make_shared<engine::telemetry::Trace>("t-00000000-1");
  engine::telemetry::TraceSpan& root = trace->root();
  root.child("probe")->set_detail("hit-memory");
  root.child("result")->set_detail("miss");
  engine::telemetry::TraceSpan* solve = root.child("solve");
  solve->set_detail("q2exact");
  solve->child("q2exact");
  root.child("store");
  r.trace = std::move(trace);
  r.show_spans = true;
  r.stable_timing = true;
  return r;
}

TEST(ApiWireSchema, ResponseMatchesTheCheckedInGolden) {
  // Field names AND values, compared order-insensitively through the same
  // flat-JSON parser serve uses — so the pin is on the schema, not on
  // incidental member ordering.
  std::ifstream golden_file(std::string(BISCHED_GOLDEN_DIR) +
                            "/solve_response_v1.json");
  ASSERT_TRUE(golden_file.is_open())
      << "golden file missing: " << BISCHED_GOLDEN_DIR << "/solve_response_v1.json";
  std::string golden_line;
  ASSERT_TRUE(std::getline(golden_file, golden_line));

  std::string error;
  const auto golden = parse_flat_json_object(golden_line, &error);
  ASSERT_TRUE(golden.has_value()) << error;
  std::string encoded = engine::encode_response_json(golden_sample());
  ASSERT_FALSE(encoded.empty());
  ASSERT_EQ(encoded.back(), '\n');  // one JSON Lines object
  encoded.pop_back();
  const auto actual = parse_flat_json_object(encoded, &error);
  ASSERT_TRUE(actual.has_value()) << error;

  // Key-set drift gets its own readable failure before the full comparison.
  for (const auto& [key, value] : *golden) {
    EXPECT_TRUE(actual->count(key) == 1) << "response lost v1 field \"" << key << "\"";
  }
  for (const auto& [key, value] : *actual) {
    EXPECT_TRUE(golden->count(key) == 1)
        << "response grew field \"" << key
        << "\" — wire growth must be a deliberate, versioned change "
           "(update the golden + docs/api.md)";
  }
  EXPECT_EQ(*actual, *golden);
}

TEST(ApiWireSchema, BatchRowsOmitTheIdMember) {
  SolveResponse row = golden_sample();
  row.id.clear();
  const std::string line = engine::encode_response_json(row);
  EXPECT_EQ(line.find("\"id\""), std::string::npos);
  EXPECT_NE(line.find("\"v\": 1"), std::string::npos);
}

TEST(ApiExecution, RunRequestResolvesEverySourceForm) {
  Rng rng(51);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  std::ostringstream text;
  write_instance(text, inst);

  const auto& registry = engine::SolverRegistry::builtin();
  engine::WarmState warm;

  // Inline text source.
  SolveRequest by_text;
  by_text.inline_text = text.str();
  by_text.has_inline_text = true;
  by_text.id = "t";
  const auto from_text = engine::run_request(registry, warm, by_text, "auto", {});
  ASSERT_TRUE(from_text.ok) << from_text.error;
  EXPECT_EQ(from_text.id, "t");

  // Pre-parsed source (the serve `instance` frame path) — same answer, and
  // the SolveResult out-param carries the schedule.
  auto parsed = std::make_shared<ParsedInstance>();
  std::istringstream in(text.str());
  *parsed = parse_instance(in);
  SolveRequest by_parsed;
  by_parsed.parsed = parsed;
  engine::SolveResult full;
  const auto from_parsed =
      engine::run_request(registry, warm, by_parsed, "auto", {}, &full);
  ASSERT_TRUE(from_parsed.ok) << from_parsed.error;
  EXPECT_EQ(from_parsed.makespan, from_text.makespan);
  EXPECT_EQ(from_parsed.solver, from_text.solver);
  EXPECT_FALSE(full.schedule.machine_of.empty());
  // Same content solved twice through one warm state: the result cache
  // served the repeat (memory tier — no store attached here).
  EXPECT_TRUE(from_parsed.result_cache_used);
  EXPECT_EQ(from_parsed.result_tier, engine::CacheTier::kMemory);

  // Portfolio-only options that cannot take effect are errors at the API
  // boundary, not silently-ignored successes — the same rule the CLI
  // enforces on its flags, now covering wire requests too.
  SolveRequest all_named;
  all_named.inline_text = text.str();
  all_named.has_inline_text = true;
  all_named.alg = "q2exact";
  all_named.has_run_all = true;
  all_named.run_all = true;
  const auto all_err = engine::run_request(registry, warm, all_named, "auto", {});
  EXPECT_FALSE(all_err.ok);
  EXPECT_NE(all_err.error.find("\"all\" requires alg \"auto\""), std::string::npos);
  SolveRequest budget_only;
  budget_only.inline_text = text.str();
  budget_only.has_inline_text = true;
  budget_only.has_budget_ms = true;
  budget_only.budget_ms = 50;
  const auto budget_err = engine::run_request(registry, warm, budget_only, "auto", {});
  EXPECT_FALSE(budget_err.ok);
  EXPECT_NE(budget_err.error.find("\"budget_ms\" requires \"all\""), std::string::npos);

  // Missing file and missing source both yield error responses, not crashes.
  SolveRequest missing;
  missing.path = "/nonexistent/x.inst";
  EXPECT_EQ(engine::run_request(registry, warm, missing, "auto", {}).error,
            "cannot open file");
  SolveRequest empty;
  EXPECT_NE(engine::run_request(registry, warm, empty, "auto", {}).error.find(
                "no instance source"),
            std::string::npos);
}

// Two 8192-job instances whose 64-bit instance hashes collide (found by a
// generalized-birthday search over the commutative edge-sum fold): A is
// bipartite, B has a triangle. Solved through one WarmState at the same
// eps, B's result key is A's too: the hit's schedule fails verification on
// B, so B is solved afresh, never answered from A's entry, and A keeps its
// own. At different eps only B's profile lookup hits A's entry, so B
// arrives at the portfolio labelled bipartite. alg1 aborts the process on an
// odd cycle, so the portfolio must refuse it cleanly, and nothing may answer
// B with alg1.
UniformInstance collision_instance(std::initializer_list<std::pair<int, int>> extra) {
  constexpr int kSide = 4096;
  Graph g(2 * kSide);
  for (int r = kSide; r < 2 * kSide; ++r) g.add_edge(0, r);
  for (int l = 1; l < kSide; ++l) g.add_edge(l, kSide);
  for (const auto& [u, v] : extra) g.add_edge(u, v);
  return make_uniform_instance(std::vector<std::int64_t>(2 * kSide, 1), {4, 3, 2, 1},
                               std::move(g));
}

TEST(ApiExecution, CollidingProfileCannotAbortABipartiteSolver) {
  const UniformInstance a = collision_instance({{426, 7067}, {117, 5592}});
  const UniformInstance b = collision_instance({{397, 1503}, {2997, 3850}});
  ASSERT_EQ(instance_hash(a), 0xa9dd4cf579ba1dc8ULL);
  ASSERT_EQ(instance_hash(b), 0xa9dd4cf579ba1dc8ULL);

  const auto& registry = engine::SolverRegistry::builtin();
  engine::WarmState warm;
  const auto request = [](const UniformInstance& inst, double eps) {
    auto parsed = std::make_shared<ParsedInstance>();
    parsed->uniform = inst;
    SolveRequest req;
    req.parsed = std::move(parsed);
    req.has_eps = true;
    req.eps = eps;
    return req;
  };
  const SolveResponse first = engine::run_request(registry, warm, request(a, 0.1), "auto", {});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.solver, "alg1");

  engine::SolveResult same_full;
  const SolveResponse same =
      engine::run_request(registry, warm, request(b, 0.1), "auto", {}, &same_full);
  EXPECT_EQ(same.result_tier, engine::CacheTier::kMiss);
  EXPECT_FALSE(same.ok && same.solver == "alg1") << "B answered from A's cached result";
  if (same.ok) {
    EXPECT_EQ(validate(b, same_full.schedule), ScheduleStatus::kValid) << same.solver;
  }
  EXPECT_EQ(warm.telemetry().cache_verify_failures().value(), 1u);

  const SolveResponse again = engine::run_request(registry, warm, request(a, 0.1), "auto", {});
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.result_tier, engine::CacheTier::kMemory);
  EXPECT_EQ(again.solver, "alg1");
  EXPECT_EQ(again.makespan, first.makespan);
  EXPECT_EQ(warm.telemetry().cache_verify_failures().value(), 1u);

  engine::SolveResult full;
  const SolveResponse second =
      engine::run_request(registry, warm, request(b, 0.2), "auto", {}, &full);
  EXPECT_EQ(second.cache_tier, engine::CacheTier::kMemory);  // the colliding profile
  EXPECT_FALSE(second.ok && second.solver == "alg1");
  if (second.ok) {
    EXPECT_EQ(validate(b, full.schedule), ScheduleStatus::kValid) << second.solver;
  } else {
    EXPECT_NE(second.error.find("conflict graph is not bipartite"), std::string::npos)
        << second.error;
  }

  // Named dispatch takes the same gate.
  SolveRequest named = request(b, 0.3);
  named.alg = "alg1";
  const SolveResponse third = engine::run_request(registry, warm, named, "auto", {});
  EXPECT_FALSE(third.ok);
  EXPECT_NE(third.error.find("conflict graph is not bipartite"), std::string::npos)
      << third.error;
}

}  // namespace
}  // namespace bisched
