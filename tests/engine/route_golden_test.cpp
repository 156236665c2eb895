// Wire-identity golden for the fleet router's client side: one lockstep
// `bisched_cli route --fleet=1 --stable` conversation on stdin/stdout
// covering every frame shape the router answers — `solve PATH`, inline JSON
// `instance` text, native `instance [ID]` bodies, frames without an id (so
// the router's `#<seq>` splice shows), reserved `#<digits>` ids, malformed
// frames and a malformed native body, an unreadable path, repeats served
// warm, an ignored `auth` frame, and `stats` frames with and without an id. Every
// response line must match tests/engine/golden/route_stream.txt byte for
// byte, so a change to how the router reaches its backends cannot change
// what its clients read.
//
// Lockstep (each frame is written only after the previous response arrived)
// makes the stats counters deterministic: the stats frame is answered by the
// router itself and would otherwise overtake routed solves. `uptime_s` is
// normalized to 0 and the instance directory is rendered as `<dir>`. On a
// mismatch the actual stream is written next to the temp directory.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/format.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

#ifdef BISCHED_CLI_PATH

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

std::string inline_frame(const std::string& id, const std::string& text) {
  const std::string id_member = id.empty() ? "" : "\"id\": \"" + id + "\", ";
  return "{" + id_member + "\"instance\": \"" + json_escape_body(text) + "\"}\n";
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
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

// One response line, or "" after 60 s without one (a hung router fails the
// test instead of the whole suite).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 60'000) <= 0) return "";
    if (::read(fd, &c, 1) != 1) return line;
    line += c;
    if (c == '\n') return line;
  }
}

struct Step {
  std::string frame;
  bool answered = true;  // false: the router sends nothing back (auth)
};

// Runs `steps` in lockstep through `bisched_cli route --fleet=1 --stable` on
// stdio and returns the concatenated response lines.
std::string lockstep_route(const std::vector<Step>& steps) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return "";
  const pid_t pid = ::fork();
  if (pid < 0) return "";
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::unsetenv("BISCHED_FAULT");
    ::execl(BISCHED_CLI_PATH, BISCHED_CLI_PATH, "route", "--fleet=1", "--stable",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  std::string out;
  for (const Step& step : steps) {
    EXPECT_TRUE(write_all(to_child[1], step.frame));
    if (!step.answered) continue;
    const std::string line = read_line(from_child[0]);
    EXPECT_FALSE(line.empty()) << "no response to: " << step.frame;
    if (line.empty()) break;
    out += line;
  }
  write_all(to_child[1], "quit\n");
  ::close(to_child[1]);
  char drain[256];
  while (::read(from_child[0], drain, sizeof drain) > 0) {
  }
  ::close(from_child[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
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

TEST(RouteGolden, StdioStreamIsByteIdentical) {
  const fs::path dir = fs::temp_directory_path() / "bisched_route_golden";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Rng rng(3407);
  const auto a = testing::random_uniform_instance(4, 4, 2, 7, 3, rng);
  const auto b = testing::random_uniform_instance(5, 3, 2, 6, 3, rng);
  const auto c = testing::random_uniform_instance(3, 4, 2, 5, 2, rng);
  const auto u = testing::random_r2_instance(4, 3, 12, rng);
  const fs::path a_path = dir / "a.inst";
  const fs::path missing = dir / "missing.inst";
  write_file(a_path, instance_text(a));
  const std::string b_text = instance_text(b);
  const std::string c_text = instance_text(c);
  const std::string malformed = "bisched uniform v1\njobs 3\np 1 2\n";
  // Fails mid-line (after its third `p` value), so the rest of that line and
  // the next are discarded up to the blank line that ends the frame.
  const std::string bad_body = "bisched uniform v1\njobs 3\np 1 -2 3 speeds 2 1 1\nedges 0\n";

  std::vector<Step> steps;
  const auto frame = [&steps](std::string f) { steps.push_back({std::move(f), true}); };
  frame("solve " + a_path.string() + " p1\n");           // miss
  frame("solve " + a_path.string() + " p2\n");           // warm repeat
  frame(inline_frame("j1", b_text));                     // inline JSON text
  frame(inline_frame("j2", b_text));
  frame("instance n1\n" + c_text);                       // native body
  frame("instance n2\n" + c_text);
  frame("instance\n" + c_text);                          // no id: #<seq>
  frame("solve " + a_path.string() + "\n");              // no id: #<seq>
  frame(inline_frame("", instance_text(u)));             // no id, unrelated
  frame(inline_frame("r1", instance_text(u)));
  frame("stats\n");                                      // the router's own, no id
  steps.push_back({"auth sesame\n", false});             // ignored, no seq
  frame("solve " + a_path.string() + " #7\n");           // reserved id
  frame("{\"id\": \"#12\", \"path\": \"" + a_path.string() + "\"}\n");
  frame("bogus frame\n");                                // unrecognized
  frame("solve\n");                                      // missing path
  frame("{\"id\": \"x1\", \"instance\": 5}\n");          // wrong member type
  frame("{not json\n");
  frame("stats a b\n");
  frame("auth\n");                                       // malformed auth
  frame("instance mb\n" + bad_body + "\n");              // malformed native body
  frame(inline_frame("mj", malformed));                  // backend parse error
  frame("solve " + missing.string() + " f1\n");          // unreadable path
  frame("solve " + missing.string() + " f2\n");
  frame(inline_frame("j3", b_text));                     // repeats after errors
  frame("instance n3\n" + c_text);
  frame("stats s\n");

  std::string actual = lockstep_route(steps);
  normalize_field(&actual, "uptime_s", "0");
  std::string::size_type at = 0;
  const std::string dir_text = dir.string();
  while ((at = actual.find(dir_text, at)) != std::string::npos) {
    actual.replace(at, dir_text.size(), "<dir>");
  }
  fs::remove_all(dir);

  const std::string golden_path = std::string(BISCHED_GOLDEN_DIR) + "/route_stream.txt";
  const std::string golden = read_text(golden_path);
  if (actual != golden) {
    const fs::path dump = fs::temp_directory_path() / "route_stream.actual";
    write_file(dump, actual);
    ADD_FAILURE() << "response stream differs from " << golden_path
                  << " (actual stream written to " << dump.string() << ")";
  }
}

}  // namespace
}  // namespace bisched

#endif  // BISCHED_CLI_PATH
