// Telemetry tests: histogram bucket/percentile math (including under
// concurrent recording), the counter mirror ratchet, span-tree nesting and
// rendering, the serve round trip carrying elapsed_ms / trace ids / metrics
// frames, the golden-pinned metric catalog, and the slow-request log.
#include "engine/telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve.hpp"
#include "engine/telemetry/trace.hpp"
#include "sched/simd_dispatch.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "stdio_serve.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace telemetry = engine::telemetry;

TEST(TelemetryHistogram, BucketBoundariesAreUpperInclusive) {
  telemetry::Histogram h({1, 2, 4});
  h.observe(1.0);  // == bound: belongs to le="1"
  h.observe(1.5);
  h.observe(3.0);
  h.observe(8.0);  // beyond the last bound: +Inf bucket

  const auto snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 13.5);
}

TEST(TelemetryHistogram, PercentilesInterpolateWithinTheOwningBucket) {
  telemetry::Histogram h({1, 2, 4});
  for (double v : {1.0, 1.5, 3.0, 8.0}) h.observe(v);
  const auto snap = h.snapshot();

  // rank(0.25) = 1 → first bucket, interpolated to its upper bound.
  EXPECT_DOUBLE_EQ(snap.percentile(0.25), 1.0);
  // rank(0.5) = 2 → second bucket (1, 2], fraction 1 → 2.0.
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 2.0);
  // rank(0.99) = 3.96 → +Inf bucket, clamped to the largest finite bound.
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 4.0);

  telemetry::Histogram empty({1, 2});
  EXPECT_DOUBLE_EQ(empty.snapshot().percentile(0.5), 0.0);
}

TEST(TelemetryHistogram, ConcurrentRecordingLosesNothing) {
  telemetry::Histogram h(telemetry::Histogram::default_latency_bounds_ms());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(0.5 + static_cast<double>((t + i) % 7));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t total = 0;
  for (const auto b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
  // Every observation is >= 0.5, so the CAS-accumulated sum must be too.
  EXPECT_GE(snap.sum, 0.5 * static_cast<double>(snap.count));
}

TEST(TelemetryCounter, MirrorRatchetsUpButNeverDown) {
  telemetry::Counter c;
  c.mirror(10);
  EXPECT_EQ(c.value(), 10u);
  c.mirror(7);  // an older external total must not regress the counter
  EXPECT_EQ(c.value(), 10u);
  c.inc(5);
  c.mirror(12);  // already past 12 via inc — no change
  EXPECT_EQ(c.value(), 15u);
}

TEST(TelemetryRegistry, ExposesFamiliesInRegistrationOrderAndDedupes) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.counter("t_total", "help a", "k=\"1\"");
  telemetry::Counter& same = reg.counter("t_total", "help a", "k=\"1\"");
  EXPECT_EQ(&a, &same);  // one (name, labels) → one object
  reg.gauge("t_gauge", "help b");
  a.inc(3);

  const std::string text = reg.expose();
  EXPECT_NE(text.find("# TYPE t_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("t_total{k=\"1\"} 3\n"), std::string::npos);
  EXPECT_LT(text.find("t_total"), text.find("t_gauge"));
}

TEST(TelemetryTrace, SpanTreeNestsAndRendersBothForms) {
  telemetry::Trace trace("t-00000000-9");
  telemetry::TraceSpan* probe = trace.root().child("probe");
  probe->set_detail("miss");
  telemetry::TraceSpan* solve = trace.root().child("solve");
  telemetry::TraceSpan* kernel = solve->child("q2exact");
  kernel->set_ms(1.5);
  solve->set_ms(2);
  probe->set_ms(0.25);
  trace.root().set_ms(3);

  EXPECT_EQ(trace.id(), "t-00000000-9");
  ASSERT_EQ(trace.root().children().size(), 2u);
  EXPECT_EQ(trace.root().children()[1].children()[0].name(), "q2exact");

  EXPECT_EQ(trace.spans_json(false),
            "[{\"name\": \"request\", \"ms\": 3, \"spans\": ["
            "{\"name\": \"probe\", \"detail\": \"miss\", \"ms\": 0.25}, "
            "{\"name\": \"solve\", \"ms\": 2, \"spans\": ["
            "{\"name\": \"q2exact\", \"ms\": 1.5}]}]}]");
  EXPECT_EQ(trace.compact(false), "request:3(probe[miss]:0.25,solve:2(q2exact:1.5))");
  // --stable rendering: the tree shape survives, every duration reads 0.
  EXPECT_EQ(trace.compact(true), "request:0(probe[miss]:0,solve:0(q2exact:0))");
}

TEST(TelemetryTrace, ProcessUniqueIdsAreSequential) {
  const std::string a = telemetry::next_trace_id();
  const std::string b = telemetry::next_trace_id();
  EXPECT_EQ(a.rfind("t-", 0), 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.substr(0, 11), b.substr(0, 11));  // same process tag
}

// ---------------------------------------------------------------------------
// Serve integration: real timing on the wire, the metrics frame, the golden
// metric catalog, and the slow log.

std::string instance_text() {
  Rng rng(53);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

TEST(TelemetryServe, ResponsesCarryElapsedAndTraceAndMetricsFrameExposes) {
  // Two sequential sessions over one WarmState: the first (the solve) drains
  // before serve() returns, so the second session's scrape reads settled
  // counter values instead of racing the pool.
  engine::WarmState warm;
  engine::ServeOptions options;
  options.threads = 1;  // NOT stable_output: real timings must survive

  std::string solve_line;
  const auto solve_stats =
      testing::serve_text("instance a\n" + instance_text(), options, &solve_line, &warm);
  EXPECT_EQ(solve_stats.requests, 1u);
  EXPECT_EQ(solve_stats.solve_frames, 1u);
  EXPECT_EQ(solve_stats.malformed, 0u);

  ASSERT_FALSE(solve_line.empty());
  solve_line.pop_back();  // trailing '\n'
  std::string error;
  const auto solve = parse_flat_json_object(solve_line, &error);
  ASSERT_TRUE(solve.has_value()) << error << " in " << solve_line;
  ASSERT_EQ(solve->count("elapsed_ms"), 1u);
  EXPECT_GT(std::stod(solve->at("elapsed_ms")), 0.0);
  ASSERT_EQ(solve->count("trace_id"), 1u);
  EXPECT_EQ(solve->at("trace_id").rfind("t-", 0), 0u);

  std::string metrics_line;
  const auto scrape_stats = testing::serve_text("metrics m1\n", options, &metrics_line, &warm);
  EXPECT_EQ(scrape_stats.metrics_frames, 1u);

  ASSERT_FALSE(metrics_line.empty());
  metrics_line.pop_back();
  const auto frame = parse_flat_json_object(metrics_line, &error);
  ASSERT_TRUE(frame.has_value()) << error << " in " << metrics_line;
  EXPECT_EQ(frame->at("type"), "metrics");
  EXPECT_EQ(frame->at("id"), "m1");
  EXPECT_EQ(frame->at("content_type"), "text/plain; version=0.0.4");
  const std::string& body = frame->at("body");
  EXPECT_NE(body.find("bisched_solves_total{status=\"ok\"} 1\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE bisched_solve_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(body.find("bisched_solve_latency_ms_count 1\n"), std::string::npos);
  EXPECT_NE(body.find("bisched_cache_lookups_total{cache=\"profile\",result=\"miss\"} 1\n"),
            std::string::npos)
      << body;
  // The metrics frame counted itself before answering.
  EXPECT_NE(body.find("bisched_serve_frames_total{type=\"metrics\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("bisched_serve_frames_total{type=\"solve\"} 1\n"),
            std::string::npos);
  // Info gauge: the resolved SIMD dispatch level, value pinned to 1.
  EXPECT_NE(body.find(std::string("bisched_simd_level{level=\"") +
                      to_string(simd_level()) + "\"} 1\n"),
            std::string::npos)
      << body;
}

TEST(TelemetryServe, RequestedSpansRideTheWireAsNestedJson) {
  std::string escaped;
  for (char c : instance_text()) {
    if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  engine::ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::string line;
  testing::serve_text("{\"id\": \"s1\", \"instance\": \"" + escaped + "\", \"spans\": true}\n",
                      options, &line);

  ASSERT_FALSE(line.empty());
  line.pop_back();  // trailing '\n'
  std::string error;
  const auto response = parse_flat_json_object(line, &error);
  ASSERT_TRUE(response.has_value()) << error << " in " << line;
  ASSERT_EQ(response->count("spans"), 1u);
  const std::string& spans = response->at("spans");
  EXPECT_EQ(spans.rfind("[{\"name\": \"request\", \"ms\": 0", 0), 0u) << spans;
  EXPECT_NE(spans.find("\"name\": \"solve\""), std::string::npos);
  // Stable output still omits the nondeterministic trace id.
  EXPECT_EQ(response->count("trace_id"), 0u);
  EXPECT_EQ(response->at("elapsed_ms"), "0");
}

TEST(TelemetryServe, MetricCatalogMatchesTheCheckedInGolden) {
  engine::ServeOptions options;
  options.threads = 1;
  engine::Server server(engine::SolverRegistry::builtin(), options);

  std::vector<std::string> type_lines;
  std::istringstream exposition(server.metrics_text());
  std::string line;
  while (std::getline(exposition, line)) {
    if (line.rfind("# TYPE ", 0) == 0) type_lines.push_back(line);
  }

  std::ifstream golden_file(std::string(BISCHED_GOLDEN_DIR) + "/metric_names.txt");
  ASSERT_TRUE(golden_file.is_open())
      << "golden file missing: " << BISCHED_GOLDEN_DIR << "/metric_names.txt";
  std::vector<std::string> golden;
  while (std::getline(golden_file, line)) {
    if (!line.empty()) golden.push_back(line);
  }
  EXPECT_EQ(type_lines, golden)
      << "metric catalog drift — renaming or retyping a series breaks scrapers; "
         "update tests/engine/golden/metric_names.txt + docs/telemetry.md "
         "deliberately";
}

TEST(TelemetryServe, SlowLogEmitsOneStructuredLinePerSlowSolve) {
  std::ostringstream in_text;
  in_text << "instance a\n" << instance_text();
  in_text << "stats s1\n";  // introspection frames never hit the slow log
  std::ostringstream slow;
  engine::ServeOptions options;
  options.threads = 1;
  options.slow_ms = 0;  // log every solve
  options.slow_log = &slow;
  std::string out;
  testing::serve_text(in_text.str(), options, &out);

  const std::string log = slow.str();
  ASSERT_EQ(log.find("serve: slow-request trace=t-"), 0u) << log;
  EXPECT_NE(log.find(" status=ok "), std::string::npos) << log;
  EXPECT_NE(log.find(" elapsed_ms="), std::string::npos);
  EXPECT_NE(log.find(" cache=miss "), std::string::npos) << log;
  EXPECT_NE(log.find(" spans=request:"), std::string::npos) << log;
  // One solve → exactly one line.
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1);
}

TEST(TelemetryServe, StatsFrameCarriesFrameCountsUptimeAndInflight) {
  // Same two-session pattern: the solve settles in session one, the stats
  // probe in session two reads deterministic values.
  engine::WarmState warm;
  engine::ServeOptions options;
  options.threads = 1;

  std::string solve_out;
  testing::serve_text("instance a\n" + instance_text(), options, &solve_out, &warm);

  std::string line;
  testing::serve_text("stats s1\n", options, &line, &warm);
  ASSERT_FALSE(line.empty());
  line.pop_back();  // trailing '\n'
  std::string error;
  const auto stats_obj = parse_flat_json_object(line, &error);
  ASSERT_TRUE(stats_obj.has_value()) << error << " in " << line;
  EXPECT_EQ(stats_obj->at("type"), "stats");
  EXPECT_EQ(stats_obj->at("solve_frames"), "1");
  EXPECT_EQ(stats_obj->at("stats_frames"), "1");  // counted itself on admission
  EXPECT_EQ(stats_obj->at("metrics_frames"), "0");
  EXPECT_EQ(stats_obj->at("malformed"), "0");
  EXPECT_EQ(stats_obj->at("requests"), "2");
  ASSERT_EQ(stats_obj->count("uptime_s"), 1u);
  EXPECT_GE(std::stod(stats_obj->at("uptime_s")), 0.0);
  // Nothing in flight in this session; the probe answered inline.
  EXPECT_EQ(stats_obj->at("inflight"), "0");
  EXPECT_EQ(stats_obj->at("session_inflight"), "0");
  EXPECT_EQ(stats_obj->at("sessions_active"), "1");
  EXPECT_EQ(stats_obj->at("sessions"), "2");
  // The resolved kernel dispatch level rides the stats frame for operators.
  EXPECT_EQ(stats_obj->at("simd"), to_string(simd_level()));
}

}  // namespace
}  // namespace bisched
