// Wire-identity golden for serve: the response bytes of a fixed set of frame
// streams, each answered by a fresh server (threads=1, --stable output), must
// match tests/engine/golden/serve_stream.txt byte for byte — over a unix
// socket and over stdio alike. The golden was captured from the retired
// thread-per-client core; it replaces the differential test that compared
// that core against the event loop on the same streams.
//
// The streams:
//   open           a comment and a blank line, native and inline-JSON bodies,
//                  a bogus frame, a malformed body with resync, a cache
//                  repeat, a missing path, a reserved `#7` id, and `quit`
//   token-*        a server configured with an auth token: a pre-auth frame,
//                  a bad token, and the good token followed by a solve
//
// Each stream is sent in one burst and the session is read to EOF. Every
// stream's section in the golden is a `# stream NAME` header, the response
// lines, and a `# stats ...` line with the server's frame/response counters.
// On a mismatch the actual transcript is written to the temp directory.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "stdio_serve.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::ServeOptions;
using engine::ServeStats;

struct Stream {
  std::string name;
  std::string auth_token;  // nonempty: the server requires `auth TOKEN`
  std::string frames;
};

std::vector<Stream> golden_streams() {
  Rng rng(61);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  std::ostringstream text_stream;
  write_instance(text_stream, inst);
  const std::string text = text_stream.str();
  std::string json_text;
  for (char c : text) {
    if (c == '\n') {
      json_text += "\\n";
    } else {
      json_text += c;
    }
  }

  std::ostringstream open;
  open << "# comment, then a blank line\n\n";
  open << "instance native-1\n" << text;
  open << "{\"id\": \"inline-json\", \"instance\": \"" << json_text << "\"}\n";
  open << "bogus frame\n";
  open << "instance broken\n"
       << "bisched uniform v1\njobs 3\np 1 2 3\nspeds 2\n2 1\nedges 0\n"
       << "\n";  // resync point after the malformed body
  open << "instance native-2\n" << text;  // cache hit
  open << "solve /nonexistent.inst missing\n";
  open << "{\"id\": \"#7\", \"path\": \"x\"}\n";  // reserved id form
  open << "quit\n";

  return {
      {"open", "", open.str()},
      {"token-preauth", "sesame", "instance sneak\n" + text + "quit\n"},
      {"token-bad", "sesame", "auth SESAME\ninstance x\n" + text + "quit\n"},
      {"token-good", "sesame", "auth sesame\ninstance good\n" + text + "quit\n"},
  };
}

ServeOptions options_for(const Stream& stream) {
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.auth_token = stream.auth_token;
  return options;
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

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  return out;
}

// One fresh serve_unix server: `stream` over one session, then a second
// connection sends `shutdown`.
ServeStats over_unix(const Stream& stream, std::string* out) {
  const auto dir = fs::temp_directory_path() / ("bisched_serve_golden_" + stream.name);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();
  const ServeOptions options = options_for(stream);

  ServeStats stats;
  std::string serve_error;
  std::thread server([&] {
    stats = engine::serve_unix(engine::SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });
  const int fd = connect_with_retry(socket_path);
  EXPECT_GE(fd, 0) << serve_error;
  if (fd >= 0) {
    write_all(fd, stream.frames);
    ::shutdown(fd, SHUT_WR);
    *out = read_to_eof(fd);
    ::close(fd);
  }
  const int bye = connect_with_retry(socket_path);
  EXPECT_GE(bye, 0);
  if (bye >= 0) {
    write_all(bye, "shutdown\n");
    ::close(bye);
  }
  server.join();
  fs::remove_all(dir);
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  return stats;
}

ServeStats over_stdio(const Stream& stream, std::string* out) {
  return testing::serve_text(stream.frames, options_for(stream), out);
}

std::string transcript(const std::function<ServeStats(const Stream&, std::string*)>& run) {
  std::ostringstream all;
  for (const Stream& stream : golden_streams()) {
    std::string out;
    const ServeStats stats = run(stream, &out);
    all << "# stream " << stream.name << "\n"
        << out << "# stats requests=" << stats.requests << " ok=" << stats.ok
        << " errors=" << stats.errors << " malformed=" << stats.malformed
        << " auth_frames=" << stats.auth_frames << "\n";
  }
  return all.str();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_golden(const std::string& actual, const std::string& transport) {
  const std::string golden_path = std::string(BISCHED_GOLDEN_DIR) + "/serve_stream.txt";
  const std::string golden = read_text(golden_path);
  ASSERT_FALSE(golden.empty()) << golden_path;
  if (actual != golden) {
    const fs::path dump =
        fs::temp_directory_path() / ("serve_stream." + transport + ".actual");
    std::ofstream(dump) << actual;
    ADD_FAILURE() << "response stream over " << transport << " differs from "
                  << golden_path << " (actual stream written to " << dump.string()
                  << ")";
  }
  // Spot-check the shared surface, not just the equality.
  for (const char* needle :
       {"\"id\": \"native-1\"", "\"id\": \"inline-json\"", "unrecognized frame",
        "parse error", "\"cache\": \"hit-memory\"", "reserved #<digits> form",
        "auth required", "auth failed: bad token", "\"id\": \"good\""}) {
    EXPECT_NE(actual.find(needle), std::string::npos) << needle;
  }
}

TEST(ServeGolden, UnixSocketReplaysTheCapturedStream) {
  expect_golden(transcript(over_unix), "unix");
}

TEST(ServeGolden, StdioReplaysTheCapturedStream) {
  expect_golden(transcript(over_stdio), "stdio");
}

}  // namespace
}  // namespace bisched
