// Fleet tests: the routing primitives (hash ring, health tracker), the
// fault-injection spec parser, the acceptance path — a subprocess
// `bisched_cli route` over two supervised backends with BISCHED_FAULT
// crashing one mid-batch, where every client request must still be answered
// (retried/failed-over invisibly) and the responses must match a
// single-backend run byte-for-byte modulo placement provenance — and the
// router's persistent backend links, driven in-process: a backend logs one
// session per link rather than per request, and dropped, stalled and
// respawned backends each cost only the attempts they must.
#include "engine/fleet/hash_ring.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/fault.hpp"
#include "engine/fleet/health.hpp"
#include "engine/fleet/router.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::fleet::HashRing;
using engine::fleet::HealthTracker;

// ------------------------------------------------------------- hash ring ---

TEST(HashRing, OwnerIsDeterministicAndCandidatesPermuteAllBackends) {
  const HashRing ring(4);
  const HashRing twin(4);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t key = i * 0x9E3779B97F4A7C15ull;
    // Placement is a pure function of (key, backend count): a router restart
    // (or a second router over the same fleet) routes identically.
    EXPECT_EQ(ring.owner(key), twin.owner(key));
    const auto candidates = ring.candidates(key);
    ASSERT_EQ(candidates.size(), 4u);
    EXPECT_EQ(candidates.front(), ring.owner(key));
    const std::set<std::size_t> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), 4u);  // every backend exactly once
  }
}

TEST(HashRing, VirtualNodesKeepTheSlicesRoughlyBalanced) {
  const HashRing ring(4);
  std::vector<int> owned(4, 0);
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    owned[ring.owner(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull)]++;
  }
  for (int b = 0; b < 4; ++b) {
    // Perfect balance is 25%; 64 virtual nodes keep every slice within a
    // loose band (a single-point-per-backend ring routinely lands below 5%).
    EXPECT_GT(owned[b], kKeys / 10) << "backend " << b << " owns too little";
    EXPECT_LT(owned[b], kKeys / 2) << "backend " << b << " owns too much";
  }
}

TEST(HashRing, SingleBackendOwnsEverything) {
  const HashRing ring(1);
  for (std::uint64_t key : {0ull, 1ull, 0xFFFFFFFFFFFFFFFFull}) {
    EXPECT_EQ(ring.owner(key), 0u);
    EXPECT_EQ(ring.candidates(key), std::vector<std::size_t>{0});
  }
}

// ---------------------------------------------------------------- health ---

TEST(HealthTracker, DemotesAfterConsecutiveFailuresAndReadmitsOnSuccess) {
  HealthTracker health(2, /*unhealthy_after=*/3);
  EXPECT_TRUE(health.healthy(0));
  EXPECT_EQ(health.healthy_count(), 2u);

  // One lost race does not eject a backend...
  health.record_failure(0);
  health.record_failure(0);
  EXPECT_TRUE(health.healthy(0));
  // ...a success wipes the streak...
  health.record_success(0);
  health.record_failure(0);
  health.record_failure(0);
  EXPECT_TRUE(health.healthy(0));
  // ...and only the full consecutive run demotes.
  health.record_failure(0);
  EXPECT_FALSE(health.healthy(0));
  EXPECT_TRUE(health.healthy(1));
  EXPECT_EQ(health.healthy_count(), 1u);

  // Recovery needs no quarantine: one answered probe re-admits.
  health.record_success(0);
  EXPECT_TRUE(health.healthy(0));

  // reset() = the supervisor respawned the slot: clean record.
  health.record_failure(1);
  health.record_failure(1);
  health.record_failure(1);
  EXPECT_FALSE(health.healthy(1));
  health.reset(1);
  EXPECT_TRUE(health.healthy(1));
}

// ----------------------------------------------------------------- fault ---

// Restores the fault module to inert whatever a test did — a leaked armed
// plan would make every later in-process serve test misbehave.
struct FaultEnvGuard {
  ~FaultEnvGuard() {
    ::unsetenv("BISCHED_FAULT");
    ::unsetenv("BISCHED_BACKEND_INDEX");
    engine::fault::refresh_from_env();
  }
};

TEST(Fault, SpecParsingScopingAndDropAction) {
  FaultEnvGuard guard;

  // Unset: every hook is a no-op.
  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);

  // drop-after:1 — the first solve frame passes, the second drops.
  ::setenv("BISCHED_FAULT", "drop-after:1", 1);
  engine::fault::refresh_from_env();
  EXPECT_TRUE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);
  EXPECT_EQ(engine::fault::on_solve_frame(),
            engine::fault::Action::kDropConnection);

  // refresh resets the counters, not just the spec.
  engine::fault::refresh_from_env();
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);

  // backend=<i> scoping: inert unless BISCHED_BACKEND_INDEX matches, so one
  // spec in a router's environment can target one backend of its fleet.
  ::setenv("BISCHED_FAULT", "backend=2;drop-after:0", 1);
  ::unsetenv("BISCHED_BACKEND_INDEX");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);
  ::setenv("BISCHED_BACKEND_INDEX", "1", 1);
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  ::setenv("BISCHED_BACKEND_INDEX", "2", 1);
  engine::fault::refresh_from_env();
  EXPECT_TRUE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(),
            engine::fault::Action::kDropConnection);

  // A malformed token disarms the whole spec (a typo'd fault must not half
  // apply), and stall-ms actually stalls.
  ::setenv("BISCHED_FAULT", "drop-after:oops;stall-ms:50", 1);
  ::unsetenv("BISCHED_BACKEND_INDEX");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  ::setenv("BISCHED_FAULT", "stall-ms:50", 1);
  engine::fault::refresh_from_env();
  const auto t0 = std::chrono::steady_clock::now();
  engine::fault::maybe_stall();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 45);
}

// ----------------------------------------------------- acceptance (route) ---
// Subprocess `bisched_cli route`: BISCHED_CLI_PATH is injected by CMake.

#ifdef BISCHED_CLI_PATH

struct RouteRun {
  std::string out;
  int exit_code = -1;
};

// Runs `bisched_cli route <args>` with `input` on stdin, `fault` (when
// non-null) as BISCHED_FAULT in the child only, and returns its stdout.
RouteRun run_route(const std::vector<std::string>& args, const char* fault,
                   const std::string& input) {
  RouteRun run;
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return run;
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    if (fault != nullptr) {
      ::setenv("BISCHED_FAULT", fault, 1);
    } else {
      ::unsetenv("BISCHED_FAULT");
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(BISCHED_CLI_PATH));
    argv.push_back(const_cast<char*>("route"));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(BISCHED_CLI_PATH, argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  size_t off = 0;
  while (off < input.size()) {
    const ssize_t n = ::write(to_child[1], input.data() + off, input.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(to_child[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(from_child[0], buf, sizeof(buf))) > 0) {
    run.out.append(buf, static_cast<size_t>(n));
  }
  ::close(from_child[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::map<std::string, std::string> lines_by_id(const std::string& out) {
  std::map<std::string, std::string> by_id;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) {
    const auto at = line.find("\"id\": \"");
    if (at == std::string::npos) continue;
    const auto start = at + 7;
    const auto end = line.find('"', start);
    by_id[line.substr(start, end - start)] = line;
  }
  return by_id;
}

// Strips the fields that legitimately differ between a 1-backend and a
// faulted 2-backend run: admission order (seq) and cache provenance (which
// backend's warmth served the repeat). Everything else must match exactly.
std::string placement_normalized(std::string line) {
  const auto strip_value = [&line](const std::string& key) {
    const auto at = line.find(key);
    if (at == std::string::npos) return;
    const auto start = at + key.size();
    auto end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    line.replace(start, end - start, "X");
  };
  strip_value("\"seq\": ");
  strip_value("\"cache\": ");
  strip_value("\"solve_cache\": ");
  return line;
}

long json_long(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::atol(text.c_str() + at + key.size());
}

TEST(FleetCli, CrashMidBatchFailsOverInvisiblyAndMatchesSingleBackendRun) {
  // Build a work set whose placement is known in advance: at least four
  // instances homed on backend 0 (so the crash-after:2 fault actually
  // trips mid-batch) and at least two on backend 1.
  const HashRing ring(2);
  Rng rng(77);
  std::vector<UniformInstance> instances;
  int homed0 = 0;
  int homed1 = 0;
  for (int guard = 0; (homed0 < 4 || homed1 < 2) && guard < 1000; ++guard) {
    auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
    const std::size_t owner = ring.owner(instance_hash(inst));
    if (owner == 0 && homed0 >= 4) continue;
    if (owner == 1 && homed1 >= 2) continue;
    (owner == 0 ? homed0 : homed1)++;
    instances.push_back(std::move(inst));
  }
  ASSERT_EQ(homed0, 4);
  ASSERT_EQ(homed1, 2);

  const auto dir = fs::temp_directory_path() / "bisched_fleet_accept";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    paths.push_back((dir / ("i" + std::to_string(i) + ".inst")).string());
    std::ofstream f(paths.back());
    write_instance(f, instances[i]);
  }

  // Two passes over the set (the repeat pass is warm traffic), then the
  // router's own stats + metrics, then quit.
  std::ostringstream frames;
  int id = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& path : paths) {
      frames << "solve " << path << " q" << id++ << "\n";
    }
  }
  std::ostringstream fleet_input;
  fleet_input << frames.str() << "stats s\nmetrics m\nquit\n";

  // --max-inflight=1 serializes admission completely: routing is
  // sequential, so the fault's frame count maps deterministically onto the
  // request order, and every solve (and its retries) settles before the
  // trailing stats/metrics probes are even read, so the counters they report
  // are exact, not a point-in-time race.
  const std::vector<std::string> fleet_args = {"--fleet=2", "--stable",
                                               "--max-inflight=1",
                                               "--deadline-ms=20000"};
  const RouteRun faulted =
      run_route(fleet_args, "backend=0;crash-after:2", fleet_input.str());
  // Exit 0 = the router itself counted zero client-visible errors.
  EXPECT_EQ(faulted.exit_code, 0) << faulted.out;

  const auto responses = lines_by_id(faulted.out);
  for (int i = 0; i < id; ++i) {
    const auto at = responses.find("q" + std::to_string(i));
    ASSERT_NE(at, responses.end()) << "missing response q" << i;
    EXPECT_NE(at->second.find("\"status\": \"ok\""), std::string::npos)
        << at->second;
  }

  // The crash was absorbed, not hidden: the router's stats admit the
  // retries, and the Prometheus scrape carries a nonzero retry counter.
  const auto stats = responses.find("s");
  ASSERT_NE(stats, responses.end());
  EXPECT_NE(stats->second.find("\"role\": \"router\""), std::string::npos);
  EXPECT_GT(json_long(stats->second, "\"retries\": "), 0) << stats->second;
  EXPECT_EQ(json_long(stats->second, "\"degraded\": "), 0) << stats->second;
  const auto metrics = responses.find("m");
  ASSERT_NE(metrics, responses.end());
  // The exposition rides JSON-escaped in "body": samples appear as
  // `\nNAME VALUE`. The retry counter must be present and nonzero.
  const auto retries_at = metrics->second.find("\\nbisched_fleet_retries_total ");
  ASSERT_NE(retries_at, std::string::npos) << metrics->second;
  EXPECT_GT(std::atol(metrics->second.c_str() + retries_at + 30), 0);
  EXPECT_NE(metrics->second.find("bisched_fleet_backends"), std::string::npos);

  // Control run: one backend, no fault. Same requests must produce the same
  // responses modulo seq and cache provenance — failover changed WHERE a
  // request ran, never its answer.
  const RouteRun single = run_route({"--fleet=1", "--stable"}, nullptr,
                                    frames.str() + "quit\n");
  EXPECT_EQ(single.exit_code, 0) << single.out;
  const auto control = lines_by_id(single.out);
  for (int i = 0; i < id; ++i) {
    const std::string key = "q" + std::to_string(i);
    const auto a = responses.find(key);
    const auto b = control.find(key);
    ASSERT_NE(a, responses.end());
    ASSERT_NE(b, control.end());
    EXPECT_EQ(placement_normalized(a->second), placement_normalized(b->second))
        << key;
  }

  fs::remove_all(dir);
}

// ------------------------------------------------------- links (in-process) ---

using engine::fleet::Router;
using engine::fleet::RouterOptions;

bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Sends `frames` on `fd`, then reads until the peer closes; closes `fd`.
std::string exchange(int fd, const std::string& frames) {
  std::string out;
  if (fd < 0) return out;
  if (send_all(fd, frames)) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// One sample from a metrics frame's JSON-escaped exposition body: `series`
// is the name plus labels as exposed (label quotes arrive escaped).
long sample(const std::string& metrics_reply, const std::string& series) {
  const std::string tag = "\\n" + series + " ";
  const auto at = metrics_reply.find(tag);
  if (at == std::string::npos) return -1;
  return std::atol(metrics_reply.c_str() + at + tag.size());
}

std::vector<std::string> response_lines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

// A Router over backends spawned from the CLI binary, its event loop on a
// thread serving a unix socket. BISCHED_FAULT (when `fault` is non-null) is
// set only while the backends spawn, so a respawned backend comes up clean.
class LiveRouter {
 public:
  LiveRouter(RouterOptions options, const char* fault, const std::string& name) {
    options.cli_path = BISCHED_CLI_PATH;
    options.serve_args = {"--stable", "--threads=2"};
    if (fault != nullptr) ::setenv("BISCHED_FAULT", fault, 1);
    router_ = std::make_unique<Router>(options, &error_);
    ::unsetenv("BISCHED_FAULT");
    if (!router_->ok()) return;
    socket_ = (fs::temp_directory_path() / (name + ".sock")).string();
    listener_ = engine::UnixListener::open(socket_, &error_);
    if (listener_ == nullptr) return;
    loop_ = std::thread([this] { router_->run(*listener_); });
  }
  LiveRouter(const LiveRouter&) = delete;
  LiveRouter& operator=(const LiveRouter&) = delete;
  ~LiveRouter() {
    if (loop_.joinable()) {
      exchange(connect(), "shutdown\n");
      loop_.join();
    }
  }
  bool ok() const { return loop_.joinable(); }
  const std::string& error() const { return error_; }
  Router& router() { return *router_; }
  int connect() const {
    std::string error;
    return engine::unix_connect(socket_, &error);
  }
  std::string router_metrics() const { return exchange(connect(), "metrics\nquit\n"); }
  std::string router_stats() const { return exchange(connect(), "stats\nquit\n"); }
  std::string backend_metrics(std::size_t i) {
    std::string error;
    const int port = router_->supervisor().port(i);
    return exchange(engine::tcp_connect("127.0.0.1", port, &error), "metrics\nquit\n");
  }

 private:
  std::string error_;
  std::unique_ptr<Router> router_;
  std::string socket_;
  std::unique_ptr<engine::UnixListener> listener_;
  std::thread loop_;
};

std::string inline_frame(const std::string& id, const UniformInstance& inst) {
  std::ostringstream text;
  write_instance(text, inst);
  std::string body;
  for (const char c : text.str()) body += c == '\n' ? std::string("\\n") : std::string(1, c);
  return "{\"id\": \"" + id + "\", \"instance\": \"" + body + "\"}\n";
}

// `count` distinct instances whose hash-ring home (over 2 backends) is
// `home`, or any home when `home` < 0.
std::vector<UniformInstance> homed_instances(int count, int home, std::uint64_t seed) {
  const HashRing ring(2);
  Rng rng(seed);
  std::vector<UniformInstance> out;
  std::set<std::uint64_t> seen;
  for (int guard = 0; static_cast<int>(out.size()) < count && guard < 100000; ++guard) {
    auto inst = testing::random_uniform_instance(4, 4, 2, 5, 3, rng);
    const std::uint64_t hash = instance_hash(inst);
    if (home >= 0 && ring.owner(hash) != static_cast<std::size_t>(home)) continue;
    if (!seen.insert(hash).second) continue;
    out.push_back(std::move(inst));
  }
  return out;
}

// Every response line is ok and they come back in send order (ids p0, p1...).
void expect_ok_in_order(const std::string& out, int count, const std::string& prefix) {
  const auto lines = response_lines(out);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(count)) << out;
  for (int i = 0; i < count; ++i) {
    EXPECT_NE(lines[i].find("\"id\": \"" + prefix + std::to_string(i) + "\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"status\": \"ok\""), std::string::npos) << lines[i];
  }
}

TEST(FleetLinks, BackendSessionsCountLinksNotRequests) {
  LiveRouter live(RouterOptions{}, nullptr, "bisched_fleet_links");
  ASSERT_TRUE(live.ok()) << live.error();

  // 200 solves (100 distinct instances, each sent twice) over 2 pipelining
  // client connections.
  const auto instances = homed_instances(100, -1, 91);
  ASSERT_EQ(instances.size(), 100u);
  std::string outs[2];
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::string frames;
      for (int i = 0; i < 100; ++i) {
        frames += inline_frame("c" + std::to_string(c) + "-" + std::to_string(i),
                               instances[static_cast<std::size_t>((i + 50 * c) % 100)]);
      }
      outs[c] = exchange(live.connect(), frames + "quit\n");
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < 2; ++c) expect_ok_in_order(outs[c], 100, "c" + std::to_string(c) + "-");

  // Let one health-probe round land so every link the router opened has
  // been accepted (and answered) by its backend.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::string fleet = live.router_metrics();
  EXPECT_EQ(sample(fleet, "bisched_fleet_requests_total{status=\\\"ok\\\"}"), 200) << fleet;
  long links_total = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string label = "{backend=\\\"" + std::to_string(i) + "\\\"}";
    const long links = sample(fleet, "bisched_fleet_link_opens_total" + label);
    // At most the solve links plus the probe link, never one per request.
    EXPECT_GE(links, 1) << fleet;
    EXPECT_LE(links, 3) << fleet;
    links_total += links;
    // The backend's own count: one session per link, plus this scrape's.
    const std::string backend = live.backend_metrics(i);
    EXPECT_EQ(sample(backend, "bisched_serve_sessions_total"), links + 1) << backend;
  }
  EXPECT_LE(links_total, 6);
}

TEST(FleetLinks, DroppedLinkFailsOverPipelinedFramesInOrder) {
  RouterOptions options;
  options.fleet = 2;
  LiveRouter live(options, "backend=0;drop-after:3", "bisched_fleet_drop");
  ASSERT_TRUE(live.ok()) << live.error();

  const auto instances = homed_instances(16, 0, 17);
  ASSERT_EQ(instances.size(), 16u);
  std::string frames;
  for (int i = 0; i < 16; ++i) frames += inline_frame("d" + std::to_string(i), instances[i]);
  const std::string out = exchange(live.connect(), frames + "quit\n");
  expect_ok_in_order(out, 16, "d");

  const std::string stats = live.router_stats();
  EXPECT_GE(json_long(stats, "\"retries\": "), 1) << stats;
  EXPECT_EQ(json_long(stats, "\"degraded\": "), 0) << stats;
  EXPECT_EQ(json_long(stats, "\"ok\": "), 16) << stats;
}

TEST(FleetLinks, StalledHomeTimesOutAndFailsOver) {
  RouterOptions options;
  options.fleet = 2;
  options.attempt_timeout_ms = 100;
  LiveRouter live(options, "backend=0;stall-ms:500", "bisched_fleet_stall");
  ASSERT_TRUE(live.ok()) << live.error();

  const auto instances = homed_instances(4, 0, 29);
  ASSERT_EQ(instances.size(), 4u);
  std::string frames;
  for (int i = 0; i < 4; ++i) frames += inline_frame("t" + std::to_string(i), instances[i]);
  const std::string out = exchange(live.connect(), frames + "quit\n");
  expect_ok_in_order(out, 4, "t");

  const std::string stats = live.router_stats();
  EXPECT_GE(json_long(stats, "\"retries\": "), 1) << stats;
  EXPECT_GE(json_long(stats, "\"failovers\": "), 1) << stats;
  EXPECT_EQ(json_long(stats, "\"degraded\": "), 0) << stats;
}

TEST(FleetLinks, RespawnedHomeServesItsSliceAgain) {
  RouterOptions options;
  options.fleet = 2;
  LiveRouter live(options, "backend=0;crash-after:2", "bisched_fleet_respawn");
  ASSERT_TRUE(live.ok()) << live.error();
  Router& router = live.router();
  const std::uint64_t generation = router.supervisor().generation(0);

  const auto instances = homed_instances(6, 0, 43);
  ASSERT_EQ(instances.size(), 6u);
  // Lockstep, one connection each: two answers from backend 0, then the
  // third solve crashes it and fails over to backend 1.
  for (int i = 0; i < 3; ++i) {
    const std::string out = exchange(live.connect(), inline_frame("r" + std::to_string(i),
                                                                 instances[i]) + "quit\n");
    EXPECT_NE(out.find("\"status\": \"ok\""), std::string::npos) << out;
  }
  const long outage_failovers = json_long(live.router_stats(), "\"failovers\": ");
  EXPECT_GE(outage_failovers, 1);

  // Wait out the respawn: a new generation, running and probed healthy.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < give_up &&
         (router.supervisor().generation(0) == generation ||
          json_long(live.router_stats(), "\"healthy\": ") != 2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_NE(router.supervisor().generation(0), generation);

  for (int i = 3; i < 6; ++i) {
    const std::string out = exchange(live.connect(), inline_frame("r" + std::to_string(i),
                                                                 instances[i]) + "quit\n");
    EXPECT_NE(out.find("\"status\": \"ok\""), std::string::npos) << out;
  }
  const std::string stats = live.router_stats();
  EXPECT_EQ(json_long(stats, "\"failovers\": "), outage_failovers) << stats;
  EXPECT_EQ(json_long(stats, "\"degraded\": "), 0) << stats;
  EXPECT_GE(json_long(stats, "\"respawns\": "), 1) << stats;
  // The new backend 0 answered its slice itself.
  EXPECT_EQ(sample(live.backend_metrics(0),
                   "bisched_serve_frames_total{type=\\\"solve\\\"}"),
            3);
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
