// Wire-identity golden for repeated traffic: one lockstep serve session over
// a unix socket (threads=1, --stable output, result cache bounded to ONE
// entry) answering inline repeats, a `solve PATH` repeat, a file rewritten
// under the same path, a whitespace/comment variant of an instance, a
// malformed body sent twice, named-solver errors, repeats whose result was
// evicted, and a trailing `stats` frame. Every response line, the stats
// counters included, must match tests/engine/golden/warm_repeat_stream.txt
// byte for byte — so any fast path in front of the parser has to reproduce
// the parse-everything answers exactly, provenance labels and cache
// counters included.
//
// Lockstep (each frame is written only after the previous response arrived)
// makes the stats frame deterministic: it is answered inline and would
// otherwise overtake queued solves. Two fields are machine-dependent and
// normalized before the comparison: `uptime_s` (to 0) and `simd` (to "-");
// the instance directory is rendered as `<dir>`. On a mismatch the actual
// stream is written next to the temp directory for diffing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

template <typename Instance>
std::string instance_text(const Instance& inst) {
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

std::string json_escape_body(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string inline_frame(const std::string& id, const std::string& text,
                         const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"instance\": \"" + json_escape_body(text) + "\"" +
         extra + "}\n";
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

int connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::string error;
    const int fd = engine::unix_connect(socket_path, &error);
    if (fd >= 0) return fd;
    ::usleep(10'000);
  }
  return -1;
}

bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    line += c;
    if (c == '\n') break;
  }
  return line;
}

// One step of the stream: a frame, or a file rewrite before the next frame.
struct Step {
  std::string frame;
  fs::path rewrite;
  std::string rewrite_text;
};

// Serves `steps` in lockstep over one unix-socket session and returns the
// concatenated response lines.
std::string lockstep_stream(const std::vector<Step>& steps, const fs::path& dir) {
  const std::string socket_path = (dir / "serve.sock").string();
  engine::ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  engine::WarmOptions warm_options;
  warm_options.result_entries = 1;
  engine::WarmState warm(warm_options);

  std::string serve_error;
  std::thread server([&] {
    (void)engine::serve_unix(engine::SolverRegistry::builtin(), socket_path, options,
                             &serve_error, &warm);
  });
  std::string out;
  const int fd = connect_with_retry(socket_path);
  EXPECT_GE(fd, 0) << serve_error;
  if (fd >= 0) {
    for (const Step& step : steps) {
      if (!step.rewrite.empty()) {
        write_file(step.rewrite, step.rewrite_text);
        continue;
      }
      EXPECT_TRUE(write_all(fd, step.frame));
      out += read_line(fd);
    }
    write_all(fd, "shutdown\n");
    ::shutdown(fd, SHUT_WR);
    char drain[256];
    while (::read(fd, drain, sizeof drain) > 0) {
    }
    ::close(fd);
  }
  server.join();
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  return out;
}

// Replaces every `"key": <value>` value (up to the next ',' or '}').
void normalize_field(std::string* text, const std::string& key, const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  for (auto at = text->find(tag); at != std::string::npos; at = text->find(tag, at + 1)) {
    const auto begin = at + tag.size();
    text->replace(begin, text->find_first_of(",}", begin) - begin, value);
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(WarmRepeatGolden, StreamIsByteIdenticalToTheParseEverythingAnswers) {
  const fs::path dir = fs::temp_directory_path() / "bisched_warm_repeat_golden";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Rng rng(1207);
  const auto a = testing::random_uniform_instance(6, 5, 3, 9, 4, rng);
  const auto b = testing::random_uniform_instance(4, 4, 2, 7, 3, rng);
  const auto c = testing::random_uniform_instance(5, 3, 2, 6, 3, rng);
  const auto u = testing::random_r2_instance(5, 4, 12, rng);
  const std::string a_text = instance_text(a);
  // Same instance, different bytes: a comment line and doubled spaces give
  // a new byte digest but the same canonical content hash.
  std::string a_variant = "# the same instance, reformatted\n";
  for (char ch : a_text) {
    a_variant += ch;
    if (ch == ' ') a_variant += ' ';
  }
  const std::string malformed = "bisched uniform v1\njobs 3\np 1 2\n";
  const fs::path b_path = dir / "b.inst";
  const fs::path missing = dir / "missing.inst";
  write_file(b_path, instance_text(b));

  std::vector<Step> steps;
  const auto frame = [&steps](std::string f) { steps.push_back({std::move(f), {}, {}}); };
  frame(inline_frame("a1", a_text));                    // miss / miss
  frame(inline_frame("a2", a_text));                    // hit / hit
  frame(inline_frame("a3", a_text));                    // hit / hit
  frame("solve " + b_path.string() + " b1\n");          // evicts a's result
  frame("solve " + b_path.string() + " b2\n");          // path repeat
  frame(inline_frame("a4", a_text));                    // result evicted: falls through
  frame(inline_frame("a5", a_variant));                 // new bytes, same hash
  frame(inline_frame("a6", a_variant));                 // variant repeat
  frame(inline_frame("a7", a_text, ", \"eps\": 0.25"));  // new result key
  frame(inline_frame("a8", a_text, ", \"eps\": 0.25"));
  frame(inline_frame("m1", malformed));                 // parse error
  frame(inline_frame("m2", malformed));                 // the same error again
  frame(inline_frame("k1", a_text, ", \"alg\": \"kab\""));  // not applicable
  frame(inline_frame("k2", a_text, ", \"alg\": \"kab\""));
  frame("solve " + missing.string() + " f1\n");         // cannot open file
  frame("solve " + missing.string() + " f2\n");
  steps.push_back({"", b_path, instance_text(c)});      // file edited in place
  frame("solve " + b_path.string() + " c1\n");          // new content, same path
  frame("solve " + b_path.string() + " c2\n");
  frame(inline_frame("u1", instance_text(u)));          // unrelated model
  frame(inline_frame("u2", instance_text(u)));
  frame(inline_frame("a9", a_text));                    // evicted again
  frame(inline_frame("a10", a_text));
  frame("stats s\n");

  std::string actual = lockstep_stream(steps, dir);
  normalize_field(&actual, "uptime_s", "0");
  normalize_field(&actual, "simd", "\"-\"");
  std::string::size_type at = 0;
  const std::string dir_text = dir.string();
  while ((at = actual.find(dir_text, at)) != std::string::npos) {
    actual.replace(at, dir_text.size(), "<dir>");
  }
  fs::remove_all(dir);

  const std::string golden_path =
      std::string(BISCHED_GOLDEN_DIR) + "/warm_repeat_stream.txt";
  const std::string golden = read_text(golden_path);
  if (actual != golden) {
    const fs::path dump = fs::temp_directory_path() / "warm_repeat_stream.actual";
    write_file(dump, actual);
    ADD_FAILURE() << "response stream differs from " << golden_path
                  << " (actual stream written to " << dump.string() << ")";
  }
}

}  // namespace
}  // namespace bisched
