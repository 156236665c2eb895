// Event-loop serve tests: pipelined responses in send order, incremental
// frame parsing under a slow writer, the auth gate, parked-reads
// backpressure, idle-timeout reaping, and a many-idle-sessions smoke at a
// scale a thread per connection would choke on. The wire bytes themselves
// are pinned by serve_golden_test.cpp.
#include <chrono>
#include "engine/serve.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/fault.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::ServeOptions;
using engine::SolverRegistry;

std::string instance_text(const UniformInstance& inst) {
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
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

// Serves `stream` over one unix-socket session and returns the full response
// byte stream plus the server's aggregate stats.
std::pair<std::string, engine::ServeStats> one_shot_session(
    const std::string& stream, ServeOptions options, const std::string& tag) {
  const auto dir = fs::temp_directory_path() / ("bisched_async_" + tag);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  const int fd = connect_with_retry(socket_path);
  EXPECT_GE(fd, 0) << serve_error;
  std::string response;
  if (fd >= 0) {
    write_all(fd, stream);
    ::shutdown(fd, SHUT_WR);
    response = read_to_eof(fd);
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
  return {response, stats};
}

// ---------------------------------------------------------------------------
// Pipelining: many frames written in ONE burst before any response is read.
// The pool (threads > 1) may finish them out of order; the wire must still
// carry responses in send order, per session.

TEST(ServeAsync, PipelinedResponsesComeBackInSendOrder) {
  Rng rng(62);
  // A heavyweight leader then lightweight followers: if completion order
  // leaked to the wire, a follower would overtake the leader.
  const auto big = testing::random_uniform_instance(24, 24, 3, 50, 5, rng);
  const auto small = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);

  std::ostringstream stream;
  stream << "instance order-0\n" << instance_text(big);
  for (int i = 1; i <= 8; ++i) {
    stream << "instance order-" << i << "\n" << instance_text(small);
  }
  stream << "quit\n";

  ServeOptions options;
  options.threads = 4;
  options.stable_output = true;
  const auto [out, stats] = one_shot_session(stream.str(), options, "pipeline");

  EXPECT_EQ(stats.ok, 9u);
  EXPECT_EQ(stats.errors, 0u);
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 9u) << out;
  for (int i = 0; i < 9; ++i) {
    const std::string id = "\"id\": \"order-" + std::to_string(i) + "\"";
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(id), std::string::npos)
        << "position " << i << " got: " << lines[static_cast<std::size_t>(i)];
  }
}

// ---------------------------------------------------------------------------
// A slow writer dribbling one frame byte-by-byte must neither block other
// sessions (the loop never waits on one socket) nor corrupt framing. That
// the body parser resumes mid-token with the same result is pinned byte by
// byte in tests/io/parse_golden_test.cpp; this test covers the socket side.

TEST(ServeAsync, SlowWriterDoesNotBlockOtherSessionsOrBreakFraming) {
  Rng rng(63);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  const auto dir = fs::temp_directory_path() / "bisched_async_slowwriter";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 2;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  const int slow = connect_with_retry(socket_path);
  ASSERT_GE(slow, 0) << serve_error;
  const std::string slow_frame = "instance dribble\n" + text;
  // Send the first half byte by byte, leaving the frame dangling mid-body.
  const std::size_t half = slow_frame.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(::write(slow, slow_frame.data() + i, 1), 1);
  }

  // A second client runs a complete conversation while the first dangles.
  const int fast = connect_with_retry(socket_path);
  ASSERT_GE(fast, 0);
  write_all(fast, "instance quick\n" + text);
  ::shutdown(fast, SHUT_WR);
  const std::string fast_out = read_to_eof(fast);
  ::close(fast);
  EXPECT_NE(fast_out.find("\"id\": \"quick\""), std::string::npos) << fast_out;
  EXPECT_NE(fast_out.find("\"status\": \"ok\""), std::string::npos) << fast_out;

  // Finish the slow frame; it must parse as one clean request.
  for (std::size_t i = half; i < slow_frame.size(); ++i) {
    ASSERT_EQ(::write(slow, slow_frame.data() + i, 1), 1);
  }
  ::shutdown(slow, SHUT_WR);
  const std::string slow_out = read_to_eof(slow);
  ::close(slow);
  EXPECT_NE(slow_out.find("\"id\": \"dribble\""), std::string::npos) << slow_out;
  EXPECT_NE(slow_out.find("\"status\": \"ok\""), std::string::npos) << slow_out;

  const int bye = connect_with_retry(socket_path);
  ASSERT_GE(bye, 0);
  write_all(bye, "shutdown\n");
  ::close(bye);
  server.join();
  fs::remove_all(dir);
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

// ---------------------------------------------------------------------------
// The auth gate over the event loop: pre-auth frames get one error line and
// a closed session; the right token admits silently.

TEST(ServeAsync, AuthGateHoldsOverTheEventLoop) {
  Rng rng(64);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.auth_token = "sesame";

  {
    const auto [out, stats] = one_shot_session(
        "instance sneak\n" + text + "instance sneak2\n" + text, options,
        "auth_sneak");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("auth required"), std::string::npos);
    EXPECT_EQ(stats.ok, 0u);
    EXPECT_EQ(stats.errors, 1u);
  }
  {
    const auto [out, stats] = one_shot_session(
        "auth sesame\ninstance good\n" + text, options, "auth_good");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("\"id\": \"good\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.auth_frames, 1u);
  }
}

// ---------------------------------------------------------------------------
// Idle-timeout reaping: a session that never completes a frame is closed
// (read returns EOF) while an active session is untouched.

TEST(ServeAsync, IdleTimeoutReapsSilentSessionsOnly) {
  Rng rng(65);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  const auto dir = fs::temp_directory_path() / "bisched_async_idle";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.idle_timeout_ms = 150;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  const int idle = connect_with_retry(socket_path);
  ASSERT_GE(idle, 0) << serve_error;

  // The active session keeps completing frames past the idle window.
  const int active = connect_with_retry(socket_path);
  ASSERT_GE(active, 0);
  engine::FdTransport transport(active);
  for (int i = 0; i < 4; ++i) {
    transport.out() << "instance keepalive-" << i << "\n" << text;
    transport.out().flush();
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(transport.in(), line)));
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
    ::usleep(60'000);
  }

  // By now (>= 240ms silent) the idle holdout must have been reaped: its
  // socket reads EOF without the server shutting down.
  std::string leftovers = read_to_eof(idle);
  EXPECT_TRUE(leftovers.empty()) << leftovers;  // closed, no response line
  ::close(idle);

  transport.out() << "shutdown\n";
  transport.out().flush();
  server.join();
  fs::remove_all(dir);
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.errors, 0u);
}

// ---------------------------------------------------------------------------
// Many-idle-sessions smoke: ~1k open connections (bounded by RLIMIT_NOFILE —
// both ends live in this one process) cost the server nothing; an active
// request cuts through them promptly.

TEST(ServeAsync, ThousandIdleSessionsDoNotStallAnActiveOne) {
  Rng rng(66);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  struct rlimit lim {};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = std::min<rlim_t>(lim.rlim_max, 4096);
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  // Client fd + server fd per session, plus headroom for the suite's own
  // files: stay well under the ceiling.
  const std::size_t idle_count =
      std::min<std::size_t>(1000, (static_cast<std::size_t>(lim.rlim_cur) - 128) / 2);
  ASSERT_GT(idle_count, 50u) << "fd limit too low to exercise idle scale";

  const auto dir = fs::temp_directory_path() / "bisched_async_scale";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 2;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  std::vector<int> idle_fds;
  idle_fds.reserve(idle_count);
  for (std::size_t i = 0; i < idle_count; ++i) {
    const int fd = connect_with_retry(socket_path);
    ASSERT_GE(fd, 0) << "after " << i << " idle sessions: " << serve_error;
    idle_fds.push_back(fd);
  }

  // One active request through the crowd — and it must still be prompt.
  // 5 s is glacial for a 4-job solve on an idle pool but still catches the
  // failure mode this pins (the loop grinding through idle sessions), even
  // on a 1-CPU sanitizer runner.
  const int active = connect_with_retry(socket_path);
  ASSERT_GE(active, 0);
  const auto t0 = std::chrono::steady_clock::now();
  write_all(active, "instance through-the-crowd\n" + text);
  ::shutdown(active, SHUT_WR);
  const std::string out = read_to_eof(active);
  const double active_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  ::close(active);
  EXPECT_NE(out.find("\"id\": \"through-the-crowd\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"status\": \"ok\""), std::string::npos) << out;
  EXPECT_LT(active_ms, 5000.0)
      << "active request stalled behind " << idle_count << " idle sessions";

  const int bye = connect_with_retry(socket_path);
  ASSERT_GE(bye, 0);
  write_all(bye, "shutdown\n");
  ::close(bye);
  server.join();
  for (const int fd : idle_fds) ::close(fd);
  fs::remove_all(dir);

  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 0u);
  // Every idle holdout was registered as a session.
  EXPECT_GE(stats.sessions, idle_count + 2);
}

// ---------------------------------------------------------------------------
// Backpressure: with pipeline_depth=2 and stalled workers, a burst of frames
// is parked rather than refused — every frame is eventually answered, unlike
// the session_max_inflight quota path (which refuses inline; that behavior
// is pinned by ServeQuota in serve_test.cpp).

TEST(ServeAsync, PipelineDepthParksReadsInsteadOfRefusing) {
  Rng rng(67);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:50", 1), 0);
  engine::fault::refresh_from_env();

  ServeOptions options;
  options.threads = 2;
  options.stable_output = true;
  options.pipeline_depth = 2;

  std::ostringstream stream;
  for (int i = 0; i < 6; ++i) {
    stream << "instance parked-" << i << "\n" << text;
  }
  stream << "quit\n";
  const auto [out, stats] = one_shot_session(stream.str(), options, "park");

  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();

  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.errors, 0u);  // parked, not over-quota errors
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 6u) << out;
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\": \"parked-" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(i)];
  }
}

}  // namespace
}  // namespace bisched
