// Fingerprint index tests: the parse-free warm path in api::run_request.
// A repeat of known bytes must be answered from the caches with a
// `fingerprint` span and a `result` span but no `parse` or `probe` span;
// its bound follows WarmOptions::profile_entries; byte variants, file
// edits, evictions, failures and disk-warmed boots fall through to the full
// path with the same answers and counters; the telemetry mirrors it; and 8
// pool threads sharing one WarmState agree with the single-threaded answers.
#include "engine/fingerprint_index.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "engine/api.hpp"
#include "engine/serve.hpp"
#include "io/format.hpp"
#include "stdio_serve.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::CacheTier;
using engine::SolveRequest;
using engine::SolveResponse;
using engine::WarmState;
using engine::telemetry::TraceSpan;

template <typename Instance>
std::string text_of(const Instance& inst) {
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

SolveRequest inline_request(const std::string& text, bool spans = false) {
  SolveRequest req;
  req.inline_text = text;
  req.has_inline_text = true;
  req.want_spans = spans;
  return req;
}

SolveResponse run(WarmState& warm, const SolveRequest& req) {
  return engine::run_request(engine::SolverRegistry::builtin(), warm, req, "auto", {});
}

// Every span name in the tree under `span`, depth first, as name[detail].
void collect(const TraceSpan& span, std::vector<std::string>* out) {
  out->push_back(span.detail().empty() ? span.name()
                                       : span.name() + "[" + span.detail() + "]");
  for (const TraceSpan& child : span.children()) collect(child, out);
}

std::vector<std::string> span_names(const SolveResponse& r) {
  std::vector<std::string> names;
  if (r.trace != nullptr) collect(r.trace->root(), &names);
  return names;
}

bool has_span(const std::vector<std::string>& names, const std::string& prefix) {
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// The answer fields that must not depend on which path served a request.
std::string answer_of(const SolveResponse& r) {
  std::ostringstream out;
  out << r.ok << '|' << r.error << '|' << r.model << '|' << r.jobs << '|' << r.machines
      << '|' << r.instance_hash << '|' << r.solver << '|' << r.guarantee << '|'
      << r.makespan;
  return out.str();
}

class FingerprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    a_ = text_of(testing::random_uniform_instance(5, 5, 3, 8, 3, rng));
    b_ = text_of(testing::random_uniform_instance(4, 3, 2, 6, 2, rng));
    c_ = text_of(testing::random_r2_instance(4, 5, 10, rng));
  }
  std::string a_, b_, c_;
};

TEST_F(FingerprintTest, RepeatIsAnsweredWithoutParseOrProbe) {
  WarmState warm;
  const SolveResponse first = run(warm, inline_request(a_, true));
  ASSERT_TRUE(first.ok) << first.error;
  const auto cold = span_names(first);
  EXPECT_TRUE(has_span(cold, "fingerprint[miss]"));
  EXPECT_TRUE(has_span(cold, "parse"));
  EXPECT_TRUE(has_span(cold, "probe[miss]"));

  engine::SolveResult full;
  const SolveResponse repeat = engine::run_request(
      engine::SolverRegistry::builtin(), warm, inline_request(a_, true), "auto", {}, &full);
  ASSERT_TRUE(repeat.ok) << repeat.error;
  const auto warm_spans = span_names(repeat);
  EXPECT_TRUE(has_span(warm_spans, "fingerprint[hit]"));
  EXPECT_TRUE(has_span(warm_spans, "result[hit-memory]"));
  EXPECT_FALSE(has_span(warm_spans, "parse"));
  EXPECT_FALSE(has_span(warm_spans, "probe"));
  EXPECT_FALSE(has_span(warm_spans, "solve"));
  // Same answer, tiered provenance as the probe path would report, and the
  // full result (schedule included) still reaches an in-process caller.
  EXPECT_EQ(answer_of(repeat), answer_of(first));
  EXPECT_EQ(repeat.cache_tier, CacheTier::kMemory);
  EXPECT_EQ(repeat.result_tier, CacheTier::kMemory);
  EXPECT_EQ(full.schedule.machine_of.size(), static_cast<std::size_t>(first.jobs));

  const auto stats = warm.fingerprints().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Counters match a parse-everything run: one probe miss then one hit.
  EXPECT_EQ(warm.profiles().stats().hits, 1u);
  EXPECT_EQ(warm.profiles().stats().misses, 1u);
  EXPECT_EQ(warm.results().stats().hits, 1u);
  EXPECT_EQ(warm.results().stats().misses, 1u);
}

TEST_F(FingerprintTest, BoundFollowsProfileEntries) {
  engine::WarmOptions options;
  options.profile_entries = 2;
  WarmState warm(options);
  for (const std::string* body : {&a_, &b_, &c_}) {
    ASSERT_TRUE(run(warm, inline_request(*body)).ok);
  }
  EXPECT_EQ(warm.fingerprints().stats().entries, 2u);

  // `a` was evicted from the index (and its profile from the cache): the
  // repeat falls through to the parse and still answers correctly.
  const SolveResponse again = run(warm, inline_request(a_, true));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(has_span(span_names(again), "fingerprint[miss]"));
  EXPECT_TRUE(has_span(span_names(again), "parse"));
  EXPECT_EQ(warm.fingerprints().stats().entries, 2u);
}

TEST_F(FingerprintTest, EvictedResultFallsThroughAsUncached) {
  engine::WarmOptions options;
  options.result_entries = 1;
  WarmState warm(options);
  ASSERT_TRUE(run(warm, inline_request(a_)).ok);
  ASSERT_TRUE(run(warm, inline_request(b_)).ok);  // evicts a's result
  const SolveResponse again = run(warm, inline_request(a_, true));
  ASSERT_TRUE(again.ok) << again.error;
  const auto names = span_names(again);
  EXPECT_TRUE(has_span(names, "fingerprint[uncached]"));
  EXPECT_TRUE(has_span(names, "parse"));
  EXPECT_EQ(again.cache_tier, CacheTier::kMemory);
  EXPECT_EQ(again.result_tier, CacheTier::kMiss);
  // The uncached probe counted nothing: exactly the full path's one miss.
  EXPECT_EQ(warm.results().stats().misses, 3u);
  EXPECT_EQ(warm.profiles().stats().hits, 1u);
}

TEST_F(FingerprintTest, ByteVariantsAndFileEditsGetNewDigestsFailuresNoEntries) {
  WarmState warm;
  const SolveResponse base = run(warm, inline_request(a_));
  ASSERT_TRUE(base.ok);
  const SolveResponse variant = run(warm, inline_request("# reformatted\n" + a_, true));
  ASSERT_TRUE(variant.ok);
  EXPECT_TRUE(has_span(span_names(variant), "fingerprint[miss]"));
  EXPECT_EQ(variant.instance_hash, base.instance_hash);
  EXPECT_EQ(warm.fingerprints().stats().entries, 2u);

  // Malformed bodies and named-solver failures are never indexed.
  for (int i = 0; i < 2; ++i) {
    const SolveResponse bad = run(warm, inline_request("bisched uniform v1\njobs 2\n"));
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error.rfind("parse error: ", 0), 0u) << bad.error;
    SolveRequest named = inline_request(a_);
    named.alg = "kab";
    EXPECT_FALSE(run(warm, named).ok);
  }
  EXPECT_EQ(warm.fingerprints().stats().entries, 2u);

  // A path source digests the file's bytes: same bytes as an inline body
  // hit the inline body's entry; rewriting the file changes the digest.
  const fs::path dir = fs::temp_directory_path() / "bisched_fingerprint_test";
  fs::create_directories(dir);
  const fs::path path = dir / "x.inst";
  const auto write = [&path](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  write(a_);
  SolveRequest by_path;
  by_path.path = path.string();
  by_path.want_spans = true;
  const SolveResponse from_file = run(warm, by_path);
  ASSERT_TRUE(from_file.ok);
  EXPECT_TRUE(has_span(span_names(from_file), "fingerprint[hit]"));
  EXPECT_EQ(from_file.file, path.string());
  write(b_);
  const SolveResponse edited = run(warm, by_path);
  ASSERT_TRUE(edited.ok);
  EXPECT_TRUE(has_span(span_names(edited), "fingerprint[miss]"));
  EXPECT_NE(edited.instance_hash, base.instance_hash);
  fs::remove_all(dir);
}

TEST_F(FingerprintTest, DiskWarmedBootStartsWithAnEmptyIndex) {
  const fs::path dir = fs::temp_directory_path() / "bisched_fingerprint_store";
  fs::remove_all(dir);
  engine::WarmOptions options;
  options.store_dir = dir.string();
  {
    WarmState first(options);
    ASSERT_TRUE(run(first, inline_request(a_)).ok);
    ASSERT_TRUE(first.checkpoint());
  }
  WarmState second(options);
  EXPECT_EQ(second.fingerprints().stats().entries, 0u);
  const SolveResponse boot = run(second, inline_request(a_));
  ASSERT_TRUE(boot.ok);
  EXPECT_EQ(boot.cache_tier, CacheTier::kDisk);
  EXPECT_EQ(boot.result_tier, CacheTier::kDisk);
  const SolveResponse repeat = run(second, inline_request(a_, true));
  ASSERT_TRUE(repeat.ok);
  EXPECT_TRUE(has_span(span_names(repeat), "fingerprint[hit]"));
  EXPECT_EQ(repeat.cache_tier, CacheTier::kMemory);
  EXPECT_EQ(repeat.result_tier, CacheTier::kMemory);
  EXPECT_EQ(second.profiles().stats().disk_hits, 1u);
  EXPECT_EQ(second.profiles().stats().hits, 1u);
  fs::remove_all(dir);
}

TEST_F(FingerprintTest, MetricsMirrorLookupsAndEntries) {
  WarmState warm;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(run(warm, inline_request(a_)).ok);
  warm.mirror_metrics();
  const std::string body = warm.telemetry().registry().expose();
  EXPECT_NE(body.find("bisched_fingerprint_lookups_total{outcome=\"hit\"} 2\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("bisched_fingerprint_lookups_total{outcome=\"miss\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("bisched_fingerprint_entries 1\n"), std::string::npos);
}

TEST_F(FingerprintTest, SlowLogRendersTheFingerprintSpan) {
  std::ostringstream frames;
  for (const char* id : {"a", "b"}) frames << "instance " << id << "\n" << a_;
  std::string escaped;
  for (char c : a_) escaped += c == '\n' ? std::string("\\n") : std::string(1, c);
  frames << "{\"id\": \"j1\", \"instance\": \"" << escaped << "\"}\n";
  frames << "{\"id\": \"j2\", \"instance\": \"" << escaped << "\"}\n";
  std::ostringstream slow;
  engine::ServeOptions options;
  options.threads = 1;
  options.slow_ms = 0;
  options.slow_log = &slow;
  std::string out;
  testing::serve_text(frames.str(), options, &out);
  const std::string log = slow.str();
  // Native `instance` frames arrive pre-parsed and skip the index; the
  // first JSON body is indexed, the second answered from it.
  EXPECT_NE(log.find(" id=j1 "), std::string::npos) << log;
  EXPECT_NE(log.find("fingerprint[miss]"), std::string::npos) << log;
  const std::size_t j2 = log.find(" id=j2 ");
  ASSERT_NE(j2, std::string::npos) << log;
  EXPECT_NE(log.find("fingerprint[hit]", j2), std::string::npos) << log;
  EXPECT_NE(log.find("result[hit-memory]", j2), std::string::npos) << log;
}

TEST_F(FingerprintTest, EightPoolThreadsAgreeWithTheSingleThreadedAnswers) {
  Rng rng(5);
  std::vector<std::string> bodies;
  for (int i = 0; i < 12; ++i) {
    bodies.push_back(i % 3 == 2
                         ? text_of(testing::random_r2_instance(4, 4, 9, rng))
                         : text_of(testing::random_uniform_instance(4, 4, 2, 7, 3, rng)));
  }
  bodies.push_back("bisched uniform v1\njobs 1\n");  // a parse error, repeated too

  std::map<std::string, std::string> answers;
  {
    WarmState reference;
    for (const std::string& body : bodies) {
      answers[body] = answer_of(run(reference, inline_request(body)));
    }
  }
  const auto& expected = answers;

  // Mixed traffic through a small shared index (profile_entries=6 keeps
  // evictions and re-inserts racing): each round cycles every body, which
  // alone would thrash the LRU, interleaved with one hot body that stays
  // resident and so must be answered from the index.
  engine::WarmOptions options;
  options.profile_entries = 6;
  WarmState warm(options);
  std::vector<std::size_t> order;
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      order.push_back((i * 7 + round) % bodies.size());
      order.push_back(round % 2);
    }
  }
  std::mutex mu;
  std::vector<std::string> mismatches;
  {
    ThreadPool pool(8);
    for (std::size_t k : order) {
      pool.submit([&, k] {
        const std::string got = answer_of(run(warm, inline_request(bodies[k])));
        const std::string& want = expected.at(bodies[k]);
        if (got != want) {
          std::lock_guard<std::mutex> lock(mu);
          mismatches.push_back(got + " != " + want);
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  const auto stats = warm.fingerprints().stats();
  EXPECT_EQ(stats.hits + stats.misses, order.size());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, 6u);
}

}  // namespace
}  // namespace bisched
