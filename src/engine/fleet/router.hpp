// The fleet router: one front-end over N supervised backend serve processes.
//
// `bisched_cli route` speaks the exact serve frame grammar (engine/serve.hpp
// — the two share the event loop's framing and classify_frame), so a client
// cannot tell a router from a single server; what changes is what stands
// behind the socket:
//
//   placement   every solve is keyed by placement_key() of the bytes the
//               router forwards — the inline instance text, or the path
//               string of a `solve PATH` frame — and routed over a
//               consistent-hash ring (hash_ring.hpp), so byte-identical
//               repeat traffic always lands on the same backend and that
//               backend's memory/disk warmth stays hot for its slice. The
//               router opens no file and parses no instance text: the
//               backend does both and owns the canonical error texts.
//   links       the router is the serve EventLoop's second dispatcher
//               (engine/serve/event_loop.hpp): client sessions and backend
//               links share one loop thread. Each backend gets up to two
//               persistent, nonblocking TCP_NODELAY links, opened lazily. A solve frame is written to the least-loaded
//               link and its ticket queued on that link; serve answers one
//               session's solve frames in send order, so the next response
//               line on a link belongs to its oldest ticket. Health `stats`
//               probes ride a separate probe link per backend, because serve
//               lets stats frames overtake queued solves.
//   failover    a failed attempt (connect refused, link EOF or write error,
//               attempt timeout) closes the link and fails every ticket on
//               it; each of those requests moves to its next candidate in
//               ring order, healthy candidates first, under one per-request
//               deadline budget. Attempt timeouts, deadlines and the pass
//               backoff are loop timers. Only when the budget is spent with
//               no answer does the client see a structured `degraded:` error
//               response.
//   supervision backends are spawned and kept alive by supervisor.hpp
//               (exponential-backoff respawn, restart-storm breaker), polled
//               from a 50 ms loop tick; health.hpp tracks who is answering
//               (periodic `stats` probes + live request outcomes) and feeds
//               the candidate ordering. A respawned slot drops its links, so
//               a stale link never charges a failure to the new process.
//
// Responses stream back to the client with the router's own `seq`
// (admission order across all router sessions) spliced in; an
// auto-assigned id is the router's `#<seq>`, never a backend's. `stats`
// frames are answered by the ROUTER (role "router": backend/health/retry
// counters), as is `metrics` (the fleet registry: bisched_fleet_* series).
//
// The router holds no warm state of its own — restarting it loses nothing
// but connections; the warmth lives in the backends' stores.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fleet/hash_ring.hpp"
#include "engine/fleet/health.hpp"
#include "engine/fleet/supervisor.hpp"
#include "engine/serve/event_loop.hpp"
#include "engine/telemetry/metrics.hpp"
#include "engine/transport.hpp"

namespace bisched::engine::fleet {

struct RouterOptions {
  std::size_t fleet = 2;       // backend count
  std::string cli_path;        // serving binary; "" = /proc/self/exe
  std::string store_dir;       // per-backend stores at <dir>/backend-<i>; "" = none
  std::vector<std::string> serve_args;  // forwarded to every backend's serve

  std::size_t max_inflight = 0;  // admission bound; 0 = 8 * fleet

  int health_interval_ms = 250;  // stats-probe period
  int unhealthy_after = 3;       // consecutive failures -> unhealthy
  int connect_timeout_ms = 2000;   // attempt deadline while its link connects
  int attempt_timeout_ms = 10000;  // per-attempt response deadline
  int deadline_ms = 30000;         // per-request budget across all retries

  SupervisorOptions supervisor;  // backoff / breaker knobs (spawn fields filled in)
};

struct RouterStats {
  std::uint64_t requests = 0;  // solve frames admitted
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  // includes degraded
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;  // answered by a non-home backend
  std::uint64_t degraded = 0;   // all candidates exhausted
  std::uint64_t respawns = 0;
  std::uint64_t breaker_trips = 0;
  std::size_t backends = 0;
  std::size_t healthy = 0;
  std::size_t unhealthy = 0;  // running but failing probes
  std::size_t down = 0;       // not running (respawning / broken / starting)
};

class Router final : public Dispatcher {
 public:
  // Spawns and supervises the fleet; ok() is false (with *error set) when
  // the backends failed to come up — destroy the router, nothing is leaked.
  Router(const RouterOptions& options, std::string* error);
  ~Router() override;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  bool ok() const { return ok_; }

  // Runs the event loop over `listener` until a `shutdown` frame or SIGTERM.
  // False = the listener failed.
  bool run(Listener& listener);
  // Runs the event loop over one session bridged to the stdio fds until
  // that session ends (EventLoop::run_stdio).
  bool run_stdio(int in_fd, int out_fd, std::string* error);

  bool shutdown_requested() const override { return shutdown_.load(); }

  RouterStats stats() const;
  std::string metrics_text() const;  // the fleet registry's exposition

  // For benches/tests that kill a backend mid-run or scrape one directly.
  Supervisor& supervisor() { return *supervisor_; }

 private:
  struct Link;
  struct Routed;

  // The event loop's dispatcher seam.
  Policy policy() const override { return {}; }
  bool admit(const Frame& frame, std::int64_t* seq) override;
  std::string probe(const Request& request, std::size_t session_inflight) override;
  std::string refuse(const Request& request) override;
  bool saturated() const override { return inflight_ >= max_inflight_; }
  void execute(Request request, Reply reply) override;
  void attach(EventLoop& loop) override { loop_ = &loop; }
  void on_ready(std::uint64_t tag, std::uint32_t events) override;
  int tick(Clock::time_point now) override;
  void request_shutdown() override { shutdown_.store(true); }
  void quiesce() override;

  // Request path: pick the next candidate and queue an attempt on one of its
  // links, or back off / degrade once every candidate failed this pass.
  void advance(std::uint64_t rid, Clock::time_point now);
  void answered(std::uint64_t rid, std::string line);
  void finish(std::uint64_t rid, std::string line);

  // Links.
  Link* pick_link(std::size_t backend);
  Link* open_link(std::size_t backend, bool probe);
  void send(Link& link, const std::string& bytes);
  bool flush(Link& link);  // false: the link failed and is gone
  void arm(Link& link);
  void read_link(Link& link);
  // Closes the link; its tickets each fail one attempt (counted against the
  // backend's health unless the link is from an older generation).
  void fail_link(Link& link, bool idle_ok);
  void close_link(Link& link);
  Link* find_link(std::uint64_t tag);

  void maintain(Clock::time_point now);
  void fire_timers(Clock::time_point now);
  void note_due(Clock::time_point at);
  void refresh_backend_gauges() const;
  std::string stats_frame_json(const std::string& id, std::int64_t seq) const;
  std::string metrics_frame_json(const std::string& id, std::int64_t seq) const;

  RouterOptions options_;
  bool ok_ = false;
  std::unique_ptr<Supervisor> supervisor_;
  std::unique_ptr<HealthTracker> health_;
  std::unique_ptr<HashRing> ring_;
  std::size_t max_inflight_ = 0;
  const Clock::time_point start_ = Clock::now();

  // Loop-thread state: everything below is touched only from the loop.
  EventLoop* loop_ = nullptr;
  std::int64_t seq_ = 0;
  std::size_t inflight_ = 0;
  std::atomic<bool> shutdown_{false};
  std::uint64_t next_rid_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Routed>> routed_;
  std::uint64_t next_tag_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;  // by tag
  std::vector<std::vector<std::uint64_t>> slots_;  // per backend: solve link tags
  std::vector<std::uint64_t> probes_;              // per backend: probe link tag
  std::vector<std::uint64_t> dirty_;  // links with unsent bytes, flushed in tick()
  Clock::time_point next_due_ = Clock::time_point::max();  // earliest timer
  Clock::time_point next_maintenance_{};
  Clock::time_point last_probe_{};
  std::vector<std::uint64_t> seen_generation_;  // health reset on respawn

  // The fleet's own registry (bisched_fleet_* series), separate from any
  // backend's engine registry — scrape the router for fleet state, a
  // backend for solve state.
  mutable telemetry::Registry registry_;
  telemetry::Counter* requests_ok_ = nullptr;
  telemetry::Counter* requests_error_ = nullptr;
  telemetry::Counter* attempts_ = nullptr;
  telemetry::Counter* retries_ = nullptr;
  telemetry::Counter* failovers_ = nullptr;
  telemetry::Counter* degraded_ = nullptr;
  telemetry::Counter* respawns_ = nullptr;
  telemetry::Counter* breaker_ = nullptr;
  telemetry::Gauge* backends_healthy_ = nullptr;
  telemetry::Gauge* backends_unhealthy_ = nullptr;
  telemetry::Gauge* backends_down_ = nullptr;
  std::vector<telemetry::Histogram*> backend_latency_;
  std::vector<telemetry::Counter*> link_opens_;
};

// The CLI entry points: one session bridged to the in/out fds (stdio), or
// an accept loop until `shutdown`/SIGTERM. Both return the router's final
// stats; *error is set on startup/listener failure.
RouterStats route_stdio(const RouterOptions& options, int in_fd, int out_fd,
                        std::string* error);
RouterStats route_listener(const RouterOptions& options, Listener& listener,
                           std::string* error);

}  // namespace bisched::engine::fleet
