// Serve-mode tests: the in-process loop (protocol, cache reuse, error
// frames) and a full subprocess round trip driving `bisched_cli serve`
// through pipes — the acceptance path: two sequential framed requests
// answered by one process, the second a recorded probe-cache hit, each
// response streamed back before the next request is even written.
#include "engine/serve.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/fault.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "stdio_serve.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::ServeOptions;
using engine::SolverRegistry;

template <typename Instance>
std::string instance_text(const Instance& inst) {
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

TEST(Serve, AnswersEveryFrameFormAndReusesTheCache) {
  Rng rng(41);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  // Frame 1: inline native text. Frame 2: the same instance as an inline
  // JSON string (same content hash -> cache hit). Frame 3: bad frame.
  std::string escaped = text;
  std::string json_text;
  for (char c : escaped) {
    if (c == '\n') {
      json_text += "\\n";
    } else if (c == '"') {
      json_text += "\\\"";
    } else {
      json_text += c;
    }
  }
  std::ostringstream in_text;
  in_text << "# warm-up comment\n\n";
  in_text << "instance first\n" << text;
  in_text << "{\"id\": \"second\", \"instance\": \"" << json_text << "\"}\n";
  in_text << "bogus frame\n";
  in_text << "quit\n";
  in_text << "instance after-quit\n";  // must never be read

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::string out;
  const auto stats = testing::serve_text(in_text.str(), options, &out);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);

  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 3u);
  std::string first;
  std::string second;
  std::string bogus;
  for (const auto& line : lines) {
    if (line.find("\"id\": \"first\"") != std::string::npos) first = line;
    if (line.find("\"id\": \"second\"") != std::string::npos) second = line;
    if (line.find("unrecognized frame") != std::string::npos) bogus = line;
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  ASSERT_FALSE(bogus.empty());
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit-memory\""), std::string::npos);
  EXPECT_NE(bogus.find("\"status\": \"error\""), std::string::npos);

  // Identical content: both responses carry the same hash and makespan.
  const auto field = [](const std::string& line, const char* key) {
    const auto at = line.find(key);
    if (at == std::string::npos) return std::string();
    return line.substr(at, line.find(',', at) - at);
  };
  EXPECT_EQ(field(first, "\"hash\": "), field(second, "\"hash\": "));
  EXPECT_EQ(field(first, "\"makespan\": "), field(second, "\"makespan\": "));
}

TEST(Serve, MalformedInlineBodyYieldsOneErrorAndResynchronizes) {
  Rng rng(44);
  const auto good = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  // A body with a typo mid-file: the parser stops there; the loop must skip
  // the rest of the body (to the blank line) instead of answering each
  // leftover body line as a bogus frame.
  std::ostringstream in_text;
  in_text << "instance broken\n"
          << "bisched uniform v1\njobs 3\np 1 2 3\nspeds 2\n2 1\nedges 0\n"
          << "\n"  // resynchronization point
          << "instance good\n"
          << instance_text(good);
  ServeOptions options;
  options.threads = 1;
  std::string out;
  const auto stats = testing::serve_text(in_text.str(), options, &out);

  EXPECT_EQ(stats.requests, 2u);  // broken + good, nothing in between
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 1u);
  // An `instance` header with extra tokens must also consume its body.
  std::string out2;
  const auto stats2 = testing::serve_text("instance too many ids\n" + instance_text(good) +
                                              "instance fine\n" + instance_text(good),
                                          options, &out2);
  EXPECT_EQ(stats2.requests, 2u);
  EXPECT_EQ(stats2.ok, 1u);
  EXPECT_EQ(stats2.errors, 1u);
  EXPECT_NE(out2.find("at most one id"), std::string::npos);
  EXPECT_NE(out2.find("\"id\": \"fine\""), std::string::npos);
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 2u);
  const auto& text = out;
  const auto broken = text.find("\"id\": \"broken\"");
  ASSERT_NE(broken, std::string::npos);
  EXPECT_NE(text.find("parse error", broken), std::string::npos);
  const auto goodr = text.find("\"id\": \"good\"");
  ASSERT_NE(goodr, std::string::npos);
  EXPECT_NE(text.find("\"status\": \"ok\"", goodr), std::string::npos);
}

TEST(Serve, PathRequestsAndPerRequestAlgOverrides) {
  Rng rng(42);
  const auto q2 = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const auto dir = fs::temp_directory_path() / "bisched_serve_inproc";
  fs::create_directories(dir);
  const auto path = (dir / "q2.inst").string();
  {
    std::ofstream f(path);
    write_instance(f, q2);
  }

  std::ostringstream in_text;
  in_text << "solve " << path << " by-line\n";
  in_text << "{\"id\": \"by-json\", \"path\": \"" << path << "\", \"alg\": \"split\"}\n";
  in_text << "{\"id\": \"missing\", \"path\": \"" << path << ".nope\"}\n";
  ServeOptions options;
  options.threads = 1;
  std::string out;
  const auto stats = testing::serve_text(in_text.str(), options, &out);
  fs::remove_all(dir);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);

  const auto& text = out;
  EXPECT_NE(text.find("\"id\": \"by-line\""), std::string::npos);
  const auto by_json = text.find("\"id\": \"by-json\"");
  ASSERT_NE(by_json, std::string::npos);
  EXPECT_NE(text.find("\"solver\": \"split\"", by_json), std::string::npos);
  const auto missing = text.find("\"id\": \"missing\"");
  ASSERT_NE(missing, std::string::npos);
  EXPECT_NE(text.find("cannot open file", missing), std::string::npos);

  // A typo'd key must be rejected, not silently solved with defaults.
  std::string out2;
  const auto stats2 = testing::serve_text(
      "{\"id\": \"typo\", \"path\": \"" + path + "\", \"ep\": 0.01}\n", options, &out2);
  EXPECT_EQ(stats2.errors, 1u);
  EXPECT_NE(out2.find("unknown key \\\"ep\\\""), std::string::npos);
}

TEST(Serve, OversizedFptasInstancesAreAnsweredNotAborted) {
  // Both pass the R2 table guard — the R2 one inside alg5, the uniform one
  // inside alg1's S1 — and must get answers, not abort the server.
  Rng rng(43);
  const std::string r2_text = instance_text(testing::oversized_fptas_r2_instance(rng));
  const std::string uniform_text = instance_text(testing::oversized_fptas_uniform_instance(rng));
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::string out;
  const auto stats = testing::serve_text(
      "instance r2\n" + r2_text + "instance uniform\n" + uniform_text + "quit\n",
      options, &out);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 2u);
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
    const bool r2 = line.find("\"id\": \"r2\"") != std::string::npos;
    EXPECT_NE(line.find(r2 ? "\"solver\": \"alg4\"" : "\"solver\": \"alg1\""),
              std::string::npos)
        << line;
  }
}

TEST(Serve, MalformedJsonFramesAreAnsweredUnderTheClientsId) {
  // The id is salvageable whenever the frame is a parseable object, even
  // when a later field fails validation — a client correlating strictly by
  // its own ids must still see the error.
  ServeOptions options;
  options.threads = 1;
  std::string text;
  const auto stats = testing::serve_text(
      "{\"id\": \"r9\", \"path\": \"a.inst\", \"eps\": \"fast\"}\n"
      "{\"id\": \"r10\"}\n"
      "{\"id\": \"#3\", \"ep\": 1}\n",  // reserved id: auto id applies
      options, &text);
  EXPECT_EQ(stats.errors, 3u);
  const auto r9 = text.find("\"id\": \"r9\"");
  ASSERT_NE(r9, std::string::npos) << text;
  EXPECT_NE(text.find("eps is not a number", r9), std::string::npos);
  const auto r10 = text.find("\"id\": \"r10\"");
  ASSERT_NE(r10, std::string::npos) << text;
  EXPECT_NE(text.find("exactly one of", r10), std::string::npos);
  EXPECT_EQ(text.find("\"id\": \"#3\""), std::string::npos);
  EXPECT_NE(text.find("\"id\": \"#2\""), std::string::npos);  // auto id instead
}

TEST(Serve, RejectsClientIdsInTheReservedForm) {
  Rng rng(45);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);
  const auto dir = fs::temp_directory_path() / "bisched_serve_reserved";
  fs::create_directories(dir);
  const auto path = (dir / "q.inst").string();
  {
    std::ofstream f(path);
    write_instance(f, inst);
  }

  // `#<digits>` is the server's auto-id namespace: both frame forms must be
  // rejected with an error response; `#x7` (not all digits) stays legal.
  std::ostringstream in_text;
  in_text << "{\"id\": \"#7\", \"path\": \"" << path << "\"}\n";
  in_text << "solve " << path << " #12\n";
  in_text << "solve " << path << " #x7\n";
  ServeOptions options;
  options.threads = 1;
  std::string out;
  const auto stats = testing::serve_text(in_text.str(), options, &out);
  fs::remove_all(dir);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 2u);
  const auto& text_out = out;
  EXPECT_NE(text_out.find("reserved #<digits> form"), std::string::npos);
  // The rejected requests are answered under their auto-assigned ids.
  EXPECT_NE(text_out.find("\"id\": \"#0\""), std::string::npos);
  EXPECT_NE(text_out.find("\"id\": \"#1\""), std::string::npos);
  const auto legal = text_out.find("\"id\": \"#x7\"");
  ASSERT_NE(legal, std::string::npos);
  EXPECT_NE(text_out.find("\"status\": \"ok\"", legal), std::string::npos);
}

TEST(Serve, StatsFrameIsAnsweredInlineAndValidated) {
  Rng rng(47);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  std::ostringstream in_text;
  in_text << "instance a\n" << instance_text(inst);
  in_text << "stats s1\n";
  in_text << "stats one two\n";  // malformed: at most one id
  in_text << "stats #7\n";       // reserved id form: rejected like any frame
  ServeOptions options;
  options.threads = 1;
  std::string text;
  const auto stats = testing::serve_text(in_text.str(), options, &text);

  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 2u);  // the solve + the well-formed stats frame
  EXPECT_EQ(stats.errors, 2u);
  const auto at = text.find("\"type\": \"stats\"");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_NE(text.find("\"id\": \"s1\""), std::string::npos) << text;
  // Structural fields (counter *values* race the pool, so only presence is
  // pinned here; the lockstep subprocess test asserts exact numbers).
  for (const char* key :
       {"\"requests\": ", "\"store\": \"\"", "\"profile_entries\": ",
        "\"profile_hits_disk\": ", "\"profile_hit_rate\": ", "\"result_entries\": ",
        "\"result_hits_memory\": ", "\"result_evictions\": ", "\"result_hit_rate\": "}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  // And it is one parseable flat JSON line, like every other response.
  const auto open_brace = text.rfind('{', at);
  const std::string line = text.substr(open_brace, text.find('\n', at) - open_brace);
  std::string parse_error;
  EXPECT_TRUE(parse_flat_json_object(line, &parse_error).has_value())
      << parse_error << " in " << line;
  EXPECT_NE(text.find("stats takes at most one id"), std::string::npos);
  EXPECT_NE(text.find("reserved #<digits> form"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Unix-socket transport: one in-process Server, a listener thread, and two
// concurrent raw-socket clients sharing its warm state.

TEST(ServeUnix, TwoConcurrentClientsShareOneResidentServer) {
  Rng rng(46);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  const auto dir = fs::temp_directory_path() / "bisched_serve_unix";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  // Wait for the socket to exist, then for connects to succeed.
  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string error;
      const int fd = engine::unix_connect(socket_path, &error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };

  // Both clients connect BEFORE either sends — the sessions are
  // demonstrably concurrent, not serialized accept-handle-accept.
  const int c1 = connect_client();
  const int c2 = connect_client();
  ASSERT_GE(c1, 0) << serve_error;
  ASSERT_GE(c2, 0) << serve_error;

  const auto talk = [&](int fd, const std::string& id) {
    const std::string frame = "instance " + id + "\n" + text;
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);  // EOF: the session drains and closes
    std::string response;
    char c = 0;
    while (::read(fd, &c, 1) == 1) response += c;
    ::close(fd);
    EXPECT_NE(response.find("\"id\": \"" + id + "\""), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
    EXPECT_NE(response.find("\"v\": 1"), std::string::npos) << response;
  };
  std::thread t1([&] { talk(c1, "client-one"); });
  std::thread t2([&] { talk(c2, "client-two"); });
  t1.join();
  t2.join();

  // An idle client that holds its connection open must NOT be able to hang
  // shutdown: the server interrupts still-connected sessions once the
  // listener stops, drains, and returns.
  const int idle = connect_client();
  ASSERT_GE(idle, 0);

  // Another client shuts the listener down; serve_unix returns even though
  // `idle` never sent a byte and never disconnected.
  const int c3 = connect_client();
  ASSERT_GE(c3, 0);
  const char* bye = "shutdown\n";
  ASSERT_EQ(::write(c3, bye, strlen(bye)), static_cast<ssize_t>(strlen(bye)));
  ::close(c3);
  server.join();
  ::close(idle);
  fs::remove_all(dir);

  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sessions, 4u);  // two talkers + the idle holdout + shutdown
  // One resident cache across clients: the second identical instance probes warm.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

// ---------------------------------------------------------------------------
// TCP transport: the same session machinery over an AF_INET listener, plus
// the no-auth guard (non-loopback binds are refused without allow_remote).

TEST(ServeTcp, LoopbackListenerServesAndPublicBindsNeedAllowRemote) {
  Rng rng(48);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  std::string error;
  auto listener = engine::TcpListener::open("127.0.0.1", /*port=*/0,
                                            /*allow_remote=*/false, &error);
  ASSERT_NE(listener, nullptr) << error;
  const int port = listener->port();
  ASSERT_GT(port, 0);  // port 0 resolved to the kernel's pick
  EXPECT_EQ(listener->endpoint(), "tcp:127.0.0.1:" + std::to_string(port));

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_listener(SolverRegistry::builtin(), *listener, options,
                                   &serve_error);
  });

  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string connect_error;
      const int fd = engine::tcp_connect("127.0.0.1", port, &connect_error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };
  const int c1 = connect_client();
  ASSERT_GE(c1, 0);
  const std::string frame = "instance over-tcp\n" + text;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(c1, frame.data() + off, frame.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  ::shutdown(c1, SHUT_WR);
  std::string response;
  char c = 0;
  while (::read(c1, &c, 1) == 1) response += c;
  ::close(c1);
  EXPECT_NE(response.find("\"id\": \"over-tcp\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;

  const int c2 = connect_client();
  ASSERT_GE(c2, 0);
  const char* bye = "shutdown\n";
  ASSERT_EQ(::write(c2, bye, strlen(bye)), static_cast<ssize_t>(strlen(bye)));
  ::close(c2);
  server.join();
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.ok, 1u);

  // The no-auth guard: a wildcard bind is refused...
  EXPECT_EQ(engine::TcpListener::open("0.0.0.0", 0, /*allow_remote=*/false, &error),
            nullptr);
  EXPECT_NE(error.find("--allow-remote"), std::string::npos) << error;
  // ...and allowed only with the explicit opt-in.
  auto exposed = engine::TcpListener::open("0.0.0.0", 0, /*allow_remote=*/true, &error);
  EXPECT_NE(exposed, nullptr) << error;
}

// Nagle off on both ends: a pipelining peer (`client --pipeline`, the
// router's backend links) writes small frames back to back, and with Nagle
// on the second one waits for the first one's ACK. The server end is the
// socket the event loop accepted, found among this process's own fds by its
// address pair.
TEST(ServeTcp, BothEndsOfATcpPairDisableNagle) {
  std::string error;
  auto listener = engine::TcpListener::open("127.0.0.1", /*port=*/0,
                                            /*allow_remote=*/false, &error);
  ASSERT_NE(listener, nullptr) << error;
  const int port = listener->port();
  ServeOptions options;
  options.threads = 1;
  std::string serve_error;
  std::thread server([&] {
    (void)engine::serve_listener(SolverRegistry::builtin(), *listener, options,
                                 &serve_error);
  });

  const int client = engine::tcp_connect("127.0.0.1", port, &error);
  ASSERT_GE(client, 0) << error;
  // One answered frame proves the loop has accepted the connection.
  const char* probe = "stats\n";
  ASSERT_EQ(::write(client, probe, strlen(probe)), static_cast<ssize_t>(strlen(probe)));
  char c = 0;
  while (::read(client, &c, 1) == 1 && c != '\n') {
  }

  sockaddr_in client_addr{};
  socklen_t len = sizeof(client_addr);
  ASSERT_EQ(::getsockname(client, reinterpret_cast<sockaddr*>(&client_addr), &len), 0);
  int accepted = -1;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    const int fd = std::atoi(entry.path().filename().c_str());
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_len = sizeof(local);
    socklen_t peer_len = sizeof(peer);
    if (fd == client ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) != 0 ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0 ||
        local.sin_family != AF_INET || ntohs(local.sin_port) != port) {
      continue;
    }
    if (peer.sin_port == client_addr.sin_port &&
        peer.sin_addr.s_addr == client_addr.sin_addr.s_addr) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "no accepted socket for the client's address";
  const auto nodelay = [](int fd) {
    int value = 0;
    socklen_t value_len = sizeof(value);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &value_len), 0);
    return value != 0;
  };
  EXPECT_TRUE(nodelay(client));
  EXPECT_TRUE(nodelay(accepted));

  const char* bye = "shutdown\n";
  ASSERT_EQ(::write(client, bye, strlen(bye)), static_cast<ssize_t>(strlen(bye)));
  server.join();
  ::close(client);
  EXPECT_TRUE(serve_error.empty()) << serve_error;
}

// ---------------------------------------------------------------------------
// The auth gate: with a configured token, `auth TOKEN` must be the first
// frame. A bad token or a pre-auth frame gets exactly one error line and the
// session closes; a good token is acked silently by serving the next frame.

TEST(ServeAuth, GateClosesUnauthedSessionsAndAdmitsTheRightToken) {
  Rng rng(52);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.auth_token = "sesame";

  const auto one_session = [&](const std::string& input) {
    std::string out;
    const auto stats = testing::serve_text(input, options, &out);
    return std::make_pair(stats, out);
  };

  // A pre-auth solve: one error line, then the session is CLOSED — the
  // well-formed solve queued behind it is never read.
  {
    const auto [stats, out] = one_session("instance sneak\n" + text +
                                          "instance sneak2\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("auth required"), std::string::npos) << out;
    EXPECT_NE(lines[0].find("\"status\": \"error\""), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 0u);
    EXPECT_EQ(stats.errors, 1u);
  }

  // A bad token (tokens are case-exact): same one-line contract.
  {
    const auto [stats, out] =
        one_session("auth SESAME\ninstance x\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("auth failed: bad token"), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 0u);
    EXPECT_EQ(stats.errors, 1u);
  }

  // The right token: the auth frame itself produces NO response line; the
  // ack is the next frame being served normally.
  {
    const auto [stats, out] =
        one_session("auth sesame\ninstance good\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("\"id\": \"good\""), std::string::npos) << out;
    EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.auth_frames, 1u);
  }

  // No configured token: an auth frame is counted and ignored, not an error.
  {
    ServeOptions open = options;
    open.auth_token.clear();
    std::string out;
    const auto stats =
        testing::serve_text("auth whatever\ninstance open\n" + text + "quit\n", open, &out);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.auth_frames, 1u);
    EXPECT_NE(out.find("\"status\": \"ok\""), std::string::npos) << out;
  }
}

// ---------------------------------------------------------------------------
// Per-session quota: with session_max_inflight=1 and the worker stalled by
// fault injection, the second frame arrives while the first is still in
// flight and is refused inline with a structured over-quota error — the
// session stays open and the first solve still completes.

TEST(ServeQuota, ExcessInflightFrameIsRefusedInlineWithOverQuota) {
  Rng rng(53);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:200", 1), 0);
  engine::fault::refresh_from_env();

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.session_max_inflight = 1;

  std::string out;
  const auto stats = testing::serve_text(
      "instance slow\n" + text + "instance greedy\n" + text + "quit\n", options, &out);

  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();

  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 1u);
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 2u) << out;
  std::string ok_line;
  std::string quota_line;
  for (const auto& line : lines) {
    if (line.find("over-quota") != std::string::npos) quota_line = line;
    if (line.find("\"status\": \"ok\"") != std::string::npos) ok_line = line;
  }
  ASSERT_FALSE(quota_line.empty()) << out;
  ASSERT_FALSE(ok_line.empty()) << out;
  EXPECT_NE(quota_line.find("\"id\": \"greedy\""), std::string::npos) << quota_line;
  EXPECT_NE(ok_line.find("\"id\": \"slow\""), std::string::npos) << ok_line;
}

// ---------------------------------------------------------------------------
// A client that vanishes mid-solve costs the server nothing but a failed
// write: SIGPIPE is ignored, so the next client is served by the same
// process instead of the whole server dying on the broken pipe.

TEST(ServeUnix, ClientDisconnectMidSolveLeavesTheServerStanding) {
  Rng rng(54);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  // Stall the solve so the response write happens strictly AFTER the ghost
  // client has hung up.
  ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:150", 1), 0);
  engine::fault::refresh_from_env();

  const auto dir = fs::temp_directory_path() / "bisched_serve_hangup";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string error;
      const int fd = engine::unix_connect(socket_path, &error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };

  // The ghost sends a full solve frame and hangs up without reading a byte.
  const int ghost = connect_client();
  ASSERT_GE(ghost, 0) << serve_error;
  const std::string frame = "instance ghost\n" + text;
  ASSERT_EQ(::write(ghost, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(ghost);

  // Let the stalled solve finish and write into the dead socket.
  ::usleep(400'000);

  // The survivor is served by the SAME process.
  const int fd = connect_client();
  ASSERT_GE(fd, 0);
  const std::string frame2 = "instance survivor\n" + text;
  ASSERT_EQ(::write(fd, frame2.data(), frame2.size()),
            static_cast<ssize_t>(frame2.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1) response += c;
  ::close(fd);

  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();

  EXPECT_NE(response.find("\"id\": \"survivor\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;

  const int bye = connect_client();
  ASSERT_GE(bye, 0);
  const char* msg = "shutdown\n";
  ASSERT_EQ(::write(bye, msg, strlen(msg)), static_cast<ssize_t>(strlen(msg)));
  ::close(bye);
  server.join();
  fs::remove_all(dir);

  EXPECT_TRUE(serve_error.empty()) << serve_error;
  // Both solves executed and counted ok — the ghost's response was counted
  // before its write failed into the closed socket.
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

// ---------------------------------------------------------------------------
// Subprocess round trip. BISCHED_CLI_PATH is injected by CMake as the
// absolute path of the bisched_cli target.

#ifdef BISCHED_CLI_PATH

class ServeCliTest : public ::testing::Test {
 protected:
  // Launches `bisched_cli serve --stable --threads=1` with both ends piped.
  void SetUp() override {
    ASSERT_EQ(::pipe(to_child_), 0);
    ASSERT_EQ(::pipe(from_child_), 0);
    child_ = ::fork();
    ASSERT_GE(child_, 0);
    if (child_ == 0) {
      ::dup2(to_child_[0], STDIN_FILENO);
      ::dup2(from_child_[1], STDOUT_FILENO);
      ::close(to_child_[0]);
      ::close(to_child_[1]);
      ::close(from_child_[0]);
      ::close(from_child_[1]);
      ::execl(BISCHED_CLI_PATH, BISCHED_CLI_PATH, "serve", "--stable",
              "--threads=1", static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    ::close(to_child_[0]);
    ::close(from_child_[1]);
  }

  void TearDown() override {
    if (to_child_[1] >= 0) ::close(to_child_[1]);
    ::close(from_child_[0]);
    if (child_ > 0) {
      int status = 0;
      ::waitpid(child_, &status, 0);
    }
  }

  void send(const std::string& text) {
    ASSERT_EQ(::write(to_child_[1], text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
  }

  void close_stdin() {
    ::close(to_child_[1]);
    to_child_[1] = -1;
  }

  // Blocks until the child emits one full response line.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (::read(from_child_[0], &c, 1) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

  int to_child_[2] = {-1, -1};
  int from_child_[2] = {-1, -1};
  pid_t child_ = -1;
};

TEST_F(ServeCliTest, TwoSequentialRequestsOneProcessWarmCacheHit) {
  Rng rng(43);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  // Request 1, then *wait for its response* before sending request 2: the
  // response must stream back while the server still holds the connection —
  // a collect-then-write loop would deadlock right here.
  send("instance r1\n" + text);
  const std::string first = read_line();
  ASSERT_NE(first.find("\"id\": \"r1\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos) << first;

  // Request 2: the same instance again. One process, same registry + cache:
  // the probe must be served from the warm cache.
  send("instance r2\n" + text);
  const std::string second = read_line();
  ASSERT_NE(second.find("\"id\": \"r2\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"status\": \"ok\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"cache\": \"hit-memory\""), std::string::npos) << second;

  // Same content -> byte-identical result fields apart from id, seq, and
  // the cache provenances (both the probe and the solve were served warm the
  // second time).
  const auto strip = [](std::string line) {
    const auto seq = line.find("\"seq\"");
    const auto comma = line.find(',', seq);
    line.erase(0, comma);  // drops {"id": ..., "seq": N
    const auto replace = [&line](const std::string& from, const std::string& to) {
      const auto at = line.find(from);
      if (at != std::string::npos) line.replace(at, from.size(), to);
    };
    replace("\"solve_cache\": \"hit-memory\"", "\"solve_cache\": \"miss\"");
    replace("\"cache\": \"hit-memory\"", "\"cache\": \"miss\"");
    return line;
  };
  EXPECT_EQ(strip(first), strip(second));

  close_stdin();  // EOF: the server drains and exits
}

TEST_F(ServeCliTest, StatsFrameReportsExactCountersInLockstep) {
  Rng rng(49);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);
  send("instance r1\n" + text);
  (void)read_line();
  send("instance r2\n" + text);
  (void)read_line();
  // Both responses are already streamed back, so every counter the stats
  // frame reports is settled — exact values, no pool race.
  send("stats s\n");
  const std::string stats = read_line();
  EXPECT_NE(stats.find("\"type\": \"stats\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"id\": \"s\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests\": 3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ok\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"profile_hits_memory\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"result_hits_memory\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"result_hit_rate\": 0.5"), std::string::npos) << stats;
  close_stdin();
}

// SIGTERM on stdio serve drains: the in-flight solve is answered, the
// summary is printed, and the process exits 0 with stdin still open. Every
// solve is stalled 500 ms by fault injection; the signal lands mid-stall.
class ServeCliStalledTest : public ServeCliTest {
 protected:
  void SetUp() override {
    ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:500", 1), 0);
    ServeCliTest::SetUp();
    ::unsetenv("BISCHED_FAULT");
  }
};

TEST_F(ServeCliStalledTest, SigtermDrainsTheInFlightSolveAndExitsZero) {
  Rng rng(55);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);
  // A lockstep warm-up proves the process is up and reading its stdin.
  send("instance warm\n" + text);
  ASSERT_NE(read_line().find("\"id\": \"warm\""), std::string::npos);

  send("instance inflight\n" + text);
  ::usleep(150'000);
  ASSERT_EQ(::kill(child_, SIGTERM), 0);
  const std::string answered = read_line();
  EXPECT_NE(answered.find("\"id\": \"inflight\""), std::string::npos) << answered;
  EXPECT_NE(answered.find("\"status\": \"ok\""), std::string::npos) << answered;
  EXPECT_EQ(read_line(), "");  // then EOF: nothing else on stdout

  int status = 0;
  ASSERT_EQ(::waitpid(child_, &status, 0), child_);
  child_ = -1;
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A closed stdin reads as EOF. Without the CLI's guard the next descriptor
// serve opens (its epoll fd) would land on fd 0 and be polled as stdin,
// and the process would never exit.
TEST(ServeCli, ClosedStdinReadsAsEofAndExits) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::close(null);
    ::close(STDIN_FILENO);
    ::execl(BISCHED_CLI_PATH, BISCHED_CLI_PATH, "serve", "--threads=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  pid_t done = 0;
  for (int i = 0; i < 1000 && done == 0; ++i) {
    done = ::waitpid(child, &status, WNOHANG);
    if (done == 0) ::usleep(10'000);
  }
  if (done == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
  }
  ASSERT_EQ(done, child) << "serve with a closed stdin did not exit within 10 s";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
