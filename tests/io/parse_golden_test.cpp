// The instance parser against tests/io/golden/parse_stops.txt: for every
// body of parse_corpus.hpp, the stop offset and the error text (or the
// parsed instance's hash) must match the golden byte for byte. The golden
// was captured from the serve loop's former two-pass body path (a scanner
// that found where a native body ends, then parse_instance over that range),
// so the serve loop, which now feeds socket bytes to InstanceParser, stops
// at the same byte and answers with the same words as before.
//
// Chunk invariance: the same bodies fed one byte at a time, and split once
// at every offset, give exactly the single-feed result.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/format.hpp"
#include "io/parse_corpus.hpp"

namespace bisched {
namespace {

using testing::CorpusBody;
using testing::parse_corpus;
using testing::stop_line;

std::vector<std::string> golden_lines() {
  std::ifstream in(std::string(BISCHED_IO_GOLDEN_DIR) + "/parse_stops.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Feeds `body` as it would arrive over a socket: the bytes up to each of
// `cuts` without eof, then the rest with eof. Consumed bytes are discarded
// between feeds, as the serve loop does. Returns the golden line.
std::string feed_in_pieces(const CorpusBody& body, const std::vector<std::size_t>& cuts) {
  InstanceParser parser;
  std::string buf;
  std::size_t consumed = 0, arrived = 0, pos = 0;
  auto status = InstanceParser::Status::kNeedMore;
  for (std::size_t i = 0; i <= cuts.size() && status == InstanceParser::Status::kNeedMore; ++i) {
    const bool eof = i == cuts.size();
    const std::size_t upto = eof ? body.text.size() : cuts[i];
    buf.append(body.text, arrived, upto - arrived);
    arrived = upto;
    status = parser.feed(buf, &pos, eof);
    consumed += pos;
    buf.erase(0, pos);
    pos = 0;
  }
  EXPECT_NE(status, InstanceParser::Status::kNeedMore) << body.name;
  return stop_line(body.name, consumed, parser.take());
}

std::string feed_whole(const CorpusBody& body) { return feed_in_pieces(body, {}); }

TEST(ParseGolden, StopsWhereAndHowThePreviousBodyPathStopped) {
  const std::vector<CorpusBody> bodies = parse_corpus();
  const std::vector<std::string> golden = golden_lines();
  ASSERT_EQ(golden.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(feed_whole(bodies[i]), golden[i]);
  }
}

TEST(ParseGolden, BothParseInstanceFormsAgreeWithTheParser) {
  for (const CorpusBody& body : parse_corpus()) {
    InstanceParser parser;
    std::size_t stop = 0;
    parser.feed(body.text, &stop, /*eof=*/true);
    const std::string line = stop_line(body.name, stop, parser.take());
    EXPECT_EQ(stop_line(body.name, stop, parse_instance(body.text)), line);
    std::istringstream in(body.text);
    EXPECT_EQ(stop_line(body.name, stop, parse_instance(in)), line);
  }
}

TEST(ParseGolden, OneByteChunksMatchOneFeed) {
  for (const CorpusBody& body : parse_corpus()) {
    std::vector<std::size_t> cuts;
    for (std::size_t k = 1; k <= body.text.size(); ++k) cuts.push_back(k);
    EXPECT_EQ(feed_in_pieces(body, cuts), feed_whole(body));
  }
}

TEST(ParseGolden, OneSplitAtEveryOffsetMatchesOneFeed) {
  for (const CorpusBody& body : parse_corpus()) {
    const std::string whole = feed_whole(body);
    for (std::size_t k = 0; k <= body.text.size(); ++k) {
      EXPECT_EQ(feed_in_pieces(body, {k}), whole) << "split at " << k;
    }
  }
}

TEST(ParseGolden, TakeResetsTheParserForTheNextBody) {
  InstanceParser parser;
  std::size_t pos = 0;
  EXPECT_EQ(parser.feed("bisched uniform v1 jobs 2 p 1", &pos, /*eof=*/true),
            InstanceParser::Status::kError);
  EXPECT_EQ(parser.take().error, "expected 2 integers for p");
  pos = 0;
  EXPECT_EQ(parser.feed("bisched uniform v1 jobs 0 p speeds 1 1 edges 0", &pos, /*eof=*/true),
            InstanceParser::Status::kDone);
  EXPECT_TRUE(parser.take().uniform.has_value());
}

}  // namespace
}  // namespace bisched
