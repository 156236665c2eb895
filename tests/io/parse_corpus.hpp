// The instance bodies the parser golden (parse_golden_test.cpp), the
// chunk-invariance test and the IoFormatFuzz tests (format_test.cpp) share:
// a mutated and a truncated corpus, the serve golden's broken body, and
// hand-written edge cases for the tokenizer and the integer rules (NUL
// bytes, overflow, signs, comments, every whitespace byte). Each body also appears with a `quit` frame behind
// it, as the serve loop sees it, so the stop offset is pinned mid-buffer too.
//
// tests/io/golden/parse_stops.txt holds one line per body:
//   NAME <TAB> STOP <TAB> ok|error <TAB> DETAIL
// STOP is the byte offset where the parse stopped when fed the whole body
// with eof set; DETAIL is the error text, or the FNV-1a of the parsed
// instance's write_instance text. Bytes outside printable ASCII are written
// as \xHH.
#pragma once

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "io/format.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched::testing {

struct CorpusBody {
  std::string name;
  std::string text;
};

inline std::vector<CorpusBody> parse_corpus() {
  std::vector<CorpusBody> bodies;
  {  // mutated-N: one to five bytes of a valid uniform body replaced
    Rng rng(1234);
    const auto inst = random_uniform_instance(4, 4, 3, 9, 4, rng);
    std::ostringstream out;
    write_instance(out, inst);
    const std::string base = out.str();
    const char charset[] = "0123456789 -azbc#\n";
    for (int iter = 0; iter < 500; ++iter) {
      std::string mutated = base;
      const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 4));
      for (int k = 0; k < mutations; ++k) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
        mutated[pos] =
            charset[rng.uniform_int(0, static_cast<std::int64_t>(sizeof charset) - 2)];
      }
      bodies.push_back({"mutated-" + std::to_string(iter), mutated});
    }
  }
  {  // truncated-N: a valid unrelated body cut to its first N bytes
    Rng rng(99);
    const auto inst = random_r2_instance(3, 3, 9, rng);
    std::ostringstream out;
    write_instance(out, inst);
    const std::string base = out.str();
    for (std::size_t len = 0; len < base.size(); len += 3) {
      bodies.push_back({"truncated-" + std::to_string(len), base.substr(0, len)});
    }
  }
  // The malformed body of serve_golden_test's `open` stream.
  bodies.push_back(
      {"serve-broken", "bisched uniform v1\njobs 3\np 1 2 3\nspeds 2\n2 1\nedges 0\n\n"});

  const std::string uni = "bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n3\n";
  const std::string edge_cases[] = {
      "",
      " \t\r\n\v\f",
      "bisched uniform v1 # a comment with no newline",
      "# lead\nbisched # a\nuniform#not-a-comment v1",
      "bisched\tuniform\rv1\vjobs\f1\r\np 7\nspeeds 1\n2\nedges 0",
      "bisched uniform v1\njobs 1\np 5" + std::string(1, '\0') + "x\nspeeds 1\n1\nedges 0\n",
      "bisched" + std::string(1, '\0') + " uniform v1\n",
      "bisched uniform\xc3\xa9 v1\n",
      "bisched uniform v1\njobs 99999999999999999999\n",
      "bisched uniform v1\njobs 10000001\n",
      "bisched uniform v1\njobs -1\n",
      "bisched uniform v1\njobs +2\np +1 -0\nspeeds 1\n1\nedges 0\n",
      "bisched uniform v1\njobs 2\np 0 x\n",
      "bisched uniform v1\njobs 2\np 0 3\nspeeds 1\n",
      "bisched uniform v1\njobs 1\np 0x10\n",
      "bisched uniform v1\njobs 1\np - 1\n",
      "bisched uniform v1\njobs 0\np speeds 2\n1 1\nedges 0\n",
      "bisched uniform v1\njobs 2\np 1 1\nspeeds 0\n",
      "bisched uniform v1\njobs 2\np 1 1\nspeeds 1000001\n",
      "bisched uniform v1\njobs 2\np 1 1\nspeeds 2\n0 1\nedges 0\n",
      uni + "edges 5\n0 1\n",
      uni + "edges 2\n0 1\n1 2\n",
      uni + "edges 2\n0 1\nx 1\n",
      uni + "edges 2\n0 1\n1 y\n",
      uni + "edges 1\n1 1\n",
      uni + "edges 1\n0 1",
      uni + "edges 1\n0 1\n",
      uni + "edges 0",
      uni + "edges\n",
      uni + "edge 0\n",
      "bisched uniform v1 jobs 1 p 1#x speeds 1 1 edges 0",
      "bisched unrelated v1\njobs 0\nmachines 3\ntimes\nedges 0\n",
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n-9223372036854775808\nedges 0\n",
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n9223372036854775807\nedges 0\n",
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n9223372036854775808\nedges 0\n",
      "bisched unrelated v1\njobs 2\nmachines 2\ntimes\n-1 2 3 4\nedges 0\n",
      "bisched unrelated v1\njobs 2\nmachines 2\ntimes\n1 2 3 -4\nedges 0\n",
      "bisched unrelated v1\njobs 2\nmachines 2\ntimes\n1 2 3\nedges 0\n",
      "bisched unrelated v1\njobs 2\nmachines 0\n",
      "bisched unrelated v1\njobs 2\nmachine 2\n",
      "bisched unrelated v1\njobs 2\nmachines 1\ntime\n",
      "bisched unrelated v1\njobs 2\nmachines 1\ntimes 1 1 edges 4 0 1 1 0",
      "bisched schedule v1\njobs 1\nmachine_of 0\n",
      "bisched uniform v2\n",
      "bisched",
      "not-bisched",
  };
  int k = 0;
  for (const std::string& text : edge_cases) {
    bodies.push_back({"edge-" + std::to_string(k++), text});
  }

  const std::size_t single = bodies.size();
  for (std::size_t i = 0; i < single; ++i) {
    bodies.push_back({bodies[i].name + "+quit", bodies[i].text + "\nquit\n"});
  }
  return bodies;
}

inline std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u > 0x7e || c == '\\') {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", u);
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// One golden line (without the newline) for a finished parse.
inline std::string stop_line(const std::string& name, std::size_t stop,
                             const ParsedInstance& parsed) {
  std::string detail;
  if (parsed.ok()) {
    std::ostringstream text;
    if (parsed.uniform.has_value()) {
      write_instance(text, *parsed.uniform);
    } else {
      write_instance(text, *parsed.unrelated);
    }
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(text.str())));
    detail = hex;
  } else {
    detail = escaped(parsed.error);
  }
  return name + "\t" + std::to_string(stop) + "\t" + (parsed.ok() ? "ok" : "error") + "\t" +
         detail;
}

}  // namespace bisched::testing
