// FLEET — routed throughput, warm repeats, and the price of a failover.
//
// The router's pitch is that a fleet behaves like one server that cannot
// die: placement by instance content hash keeps each backend's caches hot
// for its slice, and a lost backend costs a retry, not the batch. This
// harness drives the real thing — Router spawns actual `bisched_cli serve`
// subprocesses (BISCHED_CLI_PATH, injected by CMake) and serves a unix
// socket from its event loop — one request per client connection, timed
// individually, in three configurations:
//
//   cold/warm   1 backend vs. the fleet over the same corpus, then the same
//               corpus again: the repeat pass is absorbed by the backends'
//               result caches, and consistent hashing is why the fleet's
//               warm pass stays warm (repeat traffic lands where it landed).
//   kill        one backend SIGKILLed a third of the way into the stream:
//               the batch still completes with zero client-visible errors,
//               the retry/failover counters show the detour, and the p95
//               shows what it cost.
//
// Every row also reports backend sessions per request, scraped from each
// backend's bisched_serve_sessions_total: the router's links are persistent,
// so it falls toward 0 as the request count grows.
//
// Emits BENCH_fleet.json (--json-out=PATH to override).
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/fleet/router.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace bisched {
namespace {

using engine::fleet::Router;
using engine::fleet::RouterOptions;

// `count` distinct framed inline-instance requests (native text).
std::vector<std::string> build_requests(int count, int n_half, std::uint64_t seed) {
  std::vector<std::string> frames;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Graph g = gilbert_bipartite(n_half, 2.0 / n_half, rng);
    std::vector<std::int64_t> speeds(3);
    for (auto& s : speeds) s = rng.uniform_int(1, 6);
    const auto inst = make_uniform_instance(unit_weights(2 * n_half),
                                            std::move(speeds), std::move(g));
    std::ostringstream out;
    out << "instance r" << i << "\n";
    write_instance(out, inst);
    frames.push_back(out.str());
  }
  return frames;
}

struct PassResult {
  double seconds = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t degraded = 0;
  double backend_sessions_per_request = 0;
};

bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Sends `frames` on a fresh connection and returns everything read back
// until the peer closes.
std::string exchange(int fd, const std::string& frames) {
  std::string out;
  if (fd < 0) return out;
  if (write_all(fd, frames)) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// Sessions every backend has accepted so far (one scrape each; the scrape's
// own session is included). A respawned backend's count restarts at zero.
std::uint64_t backend_sessions(Router& router) {
  static const std::string kSample = "\\nbisched_serve_sessions_total ";
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < router.supervisor().size(); ++i) {
    const int port = router.supervisor().port(i);
    if (port <= 0) continue;
    std::string error;
    const std::string reply =
        exchange(engine::tcp_connect("127.0.0.1", port, &error), "metrics\nquit\n");
    const auto at = reply.find(kSample);
    if (at != std::string::npos) total += std::strtoull(reply.c_str() + at + kSample.size(), nullptr, 10);
  }
  return total;
}

// A router serving a unix socket from its own event loop on a thread.
class RoutedFleet {
 public:
  explicit RoutedFleet(const RouterOptions& options, std::string* error)
      : router_(options, error) {
    if (!router_.ok()) return;
    socket_ = (std::filesystem::temp_directory_path() /
               ("bisched_bench_fleet_" + std::to_string(::getpid()) + ".sock"))
                  .string();
    listener_ = engine::UnixListener::open(socket_, error);
    if (listener_ == nullptr) return;
    loop_ = std::thread([this] { router_.run(*listener_); });
  }
  RoutedFleet(const RoutedFleet&) = delete;
  RoutedFleet& operator=(const RoutedFleet&) = delete;
  ~RoutedFleet() {
    if (loop_.joinable()) {
      exchange(connect(), "shutdown\n");
      loop_.join();
    }
  }
  bool ok() const { return loop_.joinable(); }
  Router& router() { return router_; }
  int connect() const {
    std::string error;
    return engine::unix_connect(socket_, &error);
  }

 private:
  Router router_;
  std::string socket_;
  std::unique_ptr<engine::UnixListener> listener_;
  std::thread loop_;
};

// One request per client connection, timed individually — what a
// connect-send-read client sees, router admission and response splicing
// included. A nonnegative `kill_at` SIGKILLs backend 0 right before that
// request.
PassResult run_pass(RoutedFleet& fleet, const std::vector<std::string>& frames,
                    int kill_at = -1) {
  Router& router = fleet.router();
  PassResult pass;
  std::vector<double> latencies_ms;
  const auto before = router.stats();
  const std::uint64_t sessions_before = backend_sessions(router);
  Timer total;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (kill_at >= 0 && i == static_cast<std::size_t>(kill_at)) {
      const pid_t victim = router.supervisor().pid(0);
      if (victim > 0) ::kill(victim, SIGKILL);
    }
    Timer one;
    exchange(fleet.connect(), frames[i] + "quit\n");
    latencies_ms.push_back(one.seconds() * 1e3);
  }
  pass.seconds = total.seconds();
  // The second scrape's own sessions are not requests.
  const std::uint64_t sessions = backend_sessions(router) - router.supervisor().size();
  const auto after = router.stats();
  pass.ok = after.ok - before.ok;
  pass.errors = after.errors - before.errors;
  pass.retries = after.retries - before.retries;
  pass.failovers = after.failovers - before.failovers;
  pass.degraded = after.degraded - before.degraded;
  pass.p50_ms = bench::percentile(latencies_ms, 0.50);
  pass.p95_ms = bench::percentile(latencies_ms, 0.95);
  pass.backend_sessions_per_request =
      sessions >= sessions_before
          ? static_cast<double>(sessions - sessions_before) /
                static_cast<double>(std::max<std::size_t>(frames.size(), 1))
          : 0;
  return pass;
}

void add_row(TextTable& t, bench::JsonReport& report, const char* bench_case,
             std::size_t fleet, std::size_t requests, const PassResult& pass,
             std::uint64_t respawns) {
  t.add_row({bench_case, fmt_count(static_cast<long long>(fleet)),
             fmt_count(static_cast<long long>(requests)),
             fmt_count(static_cast<long long>(pass.ok)),
             fmt_count(static_cast<long long>(pass.ok / std::max(pass.seconds, 1e-9))),
             fmt_ratio(pass.p50_ms), fmt_ratio(pass.p95_ms),
             fmt_count(static_cast<long long>(pass.retries)),
             fmt_count(static_cast<long long>(pass.failovers)),
             fmt_count(static_cast<long long>(respawns)),
             fmt_ratio(pass.backend_sessions_per_request)});
  report.add({{"bench_case", bench_case},
              {"fleet", fleet},
              {"requests", requests},
              {"ok", pass.ok},
              {"errors", pass.errors},
              {"seconds", pass.seconds},
              {"p50_ms", pass.p50_ms},
              {"p95_ms", pass.p95_ms},
              {"retries", pass.retries},
              {"failovers", pass.failovers},
              {"degraded", pass.degraded},
              {"respawns", respawns},
              {"backend_sessions_per_request", pass.backend_sessions_per_request}});
}

RouterOptions base_options(std::size_t fleet) {
  RouterOptions options;
  options.fleet = fleet;
  options.cli_path = BISCHED_CLI_PATH;
  options.serve_args = {"--stable"};
  options.attempt_timeout_ms = 5000;
  return options;
}

void fleet_table(bench::JsonReport& report, bool quick) {
  TextTable t(
      "fleet: routed throughput cold vs. warm, and a SIGKILL mid-stream");
  t.set_header({"case", "fleet", "requests", "ok", "req/s", "p50 ms", "p95 ms",
                "retries", "failovers", "respawns", "sessions/req"});
  const int kRequests = quick ? 12 : 48;
  const auto frames = build_requests(kRequests, quick ? 12 : 30, bench::kBenchSeed);

  for (const std::size_t fleet : {std::size_t{1}, std::size_t{2}}) {
    std::string error;
    RoutedFleet routed(base_options(fleet), &error);
    if (!routed.ok()) {
      std::cerr << "router (fleet=" << fleet << "): " << error << "\n";
      continue;
    }
    const auto cold = run_pass(routed, frames);
    const auto warm = run_pass(routed, frames);
    add_row(t, report, fleet == 1 ? "cold_1" : "cold_fleet", fleet,
            frames.size(), cold, routed.router().stats().respawns);
    add_row(t, report, fleet == 1 ? "warm_1" : "warm_fleet", fleet,
            frames.size(), warm, routed.router().stats().respawns);
  }

  // The disruption pass: backend 0 is SIGKILLed a third of the way in. The
  // batch must complete (ok == requests, errors == 0); the detour shows up
  // in retries/failovers and in the p95.
  {
    std::string error;
    RoutedFleet routed(base_options(2), &error);
    if (!routed.ok()) {
      std::cerr << "router (kill pass): " << error << "\n";
      return;
    }
    const auto pass = run_pass(routed, frames, kRequests / 3);
    add_row(t, report, "kill_mid_stream", 2, frames.size(), pass,
            routed.router().stats().respawns);
    if (pass.errors != 0) {
      std::cerr << "kill pass saw " << pass.errors << " client errors\n";
    }
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main(int argc, char** argv) {
  using namespace bisched;
  const bool quick = bench::parse_switch(argc, argv, "quick");
  bench::banner("FLEET — supervised backends behind one consistent-hash router",
                "A lost backend costs a retry, not the batch: the kill row "
                "completes with zero client-visible errors");
  bench::JsonReport report("fleet", argc, argv);
  fleet_table(report, quick);
  return report.write() ? 0 : 1;
}
