#include "io/format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "io/parse_corpus.hpp"
#include "random/generators.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

TEST(IoFormat, ParseUniformBasic) {
  std::istringstream in(
      "# a comment\n"
      "bisched uniform v1\n"
      "jobs 3\n"
      "p 5 1 2\n"
      "speeds 2\n"
      "4 1\n"
      "edges 1\n"
      "0 2\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.uniform.has_value());
  EXPECT_EQ(parsed.uniform->num_jobs(), 3);
  EXPECT_EQ(parsed.uniform->speeds, (std::vector<std::int64_t>{4, 1}));
  EXPECT_TRUE(parsed.uniform->conflicts.has_edge(0, 2));
}

TEST(IoFormat, ParseUnrelatedBasic) {
  std::istringstream in(
      "bisched unrelated v1\n"
      "jobs 2\n"
      "machines 2\n"
      "times\n"
      "1 2\n"
      "3 0\n"
      "edges 0\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.unrelated.has_value());
  EXPECT_EQ(parsed.unrelated->times[1][0], 3);
}

TEST(IoFormat, UniformRoundTrip) {
  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = testing::random_uniform_instance(4, 5, 3, 9, 6, rng);
    std::ostringstream out;
    write_instance(out, inst);
    std::istringstream in(out.str());
    const auto parsed = parse_instance(in);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_TRUE(parsed.uniform.has_value());
    EXPECT_EQ(parsed.uniform->p, inst.p);
    EXPECT_EQ(parsed.uniform->speeds, inst.speeds);
    EXPECT_EQ(parsed.uniform->conflicts.num_edges(), inst.conflicts.num_edges());
    // Re-serialize: identical text.
    std::ostringstream out2;
    write_instance(out2, *parsed.uniform);
    EXPECT_EQ(out.str(), out2.str());
  }
}

TEST(IoFormat, UnrelatedRoundTrip) {
  Rng rng(6);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = testing::random_r2_instance(4, 4, 20, rng);
    std::ostringstream out;
    write_instance(out, inst);
    std::istringstream in(out.str());
    const auto parsed = parse_instance(in);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_TRUE(parsed.unrelated.has_value());
    EXPECT_EQ(parsed.unrelated->times, inst.times);
  }
}

TEST(IoFormat, ScheduleRoundTrip) {
  Schedule s{{0, 2, 1, 0}};
  std::ostringstream out;
  write_schedule(out, s);
  std::istringstream in(out.str());
  std::string error;
  const auto parsed = parse_schedule(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->machine_of, s.machine_of);
}

TEST(IoFormat, ErrorsAreDiagnosable) {
  {
    std::istringstream in("not-bisched");
    const auto parsed = parse_instance(in);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("bisched"), std::string::npos);
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1\n");  // too few p
    EXPECT_FALSE(parse_instance(in).ok());
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n0\nedges 0\n");
    const auto parsed = parse_instance(in);  // zero speed
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("speeds"), std::string::npos);
  }
  {
    std::istringstream in(
        "bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n3\nedges 1\n0 5\n");
    const auto parsed = parse_instance(in);  // edge endpoint out of range
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("edge"), std::string::npos);
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n3\nedges 1\n1 1\n");
    EXPECT_FALSE(parse_instance(in).ok());  // self-loop
  }
  {
    std::istringstream in("bisched schedule v1\njobs 2\nmachine_of 0 -1\n");
    std::string error;
    EXPECT_FALSE(parse_schedule(in, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(IoFormat, CommentsAndWhitespaceTolerated) {
  std::istringstream in(
      "bisched   uniform\n"
      "  v1 # trailing comment\n"
      "jobs 1 # one job\n"
      "p 7\n"
      "speeds 1\n"
      "2\n"
      "edges 0\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.uniform->p[0], 7);
}

// Fuzz: byte-level mutations of a valid serialization must never crash the
// parser — it either parses (mutation hit whitespace/comments) or reports an
// error string. The parser is the one component that consumes untrusted
// input, so it must not BISCHED_CHECK-abort on malformed data.
// Both fuzz corpora come from parse_corpus(), which the parse golden pins
// body by body; these keep the coarse invariants over the istream form.
bool has_prefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

TEST(IoFormatFuzz, MutatedInputsNeverCrash) {
  int bodies = 0;
  for (const testing::CorpusBody& body : testing::parse_corpus()) {
    if (!has_prefix(body.name, "mutated-")) continue;
    ++bodies;
    std::istringstream in(body.text);
    const auto parsed = parse_instance(in);  // must return, never abort
    if (parsed.ok()) {
      EXPECT_TRUE(parsed.uniform.has_value() || parsed.unrelated.has_value()) << body.name;
    } else {
      EXPECT_FALSE(parsed.error.empty()) << body.name;
    }
  }
  EXPECT_EQ(bodies, 1000);  // 500 mutations, each also with a quit frame behind
}

TEST(IoFormatFuzz, TruncatedInputsNeverCrash) {
  int bodies = 0;
  for (const testing::CorpusBody& body : testing::parse_corpus()) {
    // A quit frame behind a truncated body can complete it; only the bare
    // truncations must fail.
    if (!has_prefix(body.name, "truncated-") || body.name.find('+') != std::string::npos) {
      continue;
    }
    ++bodies;
    std::istringstream in(body.text);
    const auto parsed = parse_instance(in);
    EXPECT_FALSE(parsed.ok()) << body.name;  // truncation always breaks something
    EXPECT_FALSE(parsed.error.empty()) << body.name;
  }
  EXPECT_GT(bodies, 0);
}

TEST(IoFormat, NegativeTimeRejected) {
  std::istringstream in(
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n-2\nedges 0\n");
  const auto parsed = parse_instance(in);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("times"), std::string::npos);
}

}  // namespace
}  // namespace bisched
