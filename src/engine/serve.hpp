// Long-lived serve mode: framed solve requests in, streamed v1 responses out.
//
// The resident state — one registry, one WarmState (probe + result caches,
// optionally disk-tiered behind a store directory), one thread pool — lives
// in `Server`, the serve dispatcher of the epoll event loop
// (engine/serve/event_loop.hpp). The loop owns every client session: it
// frames requests, runs the auth and quota gates, answers stats/metrics
// probes inline, and hands solve frames to the Server, whose pool decodes
// them through the engine/api v1 codec and renders one JSON Lines response
// each. Responses leave in each session's send order. Every client is
// answered from the same warm state and pool, so traffic from one client
// warms the next, and a persistent store warms the next *process*.
//
//   serve(...)           one session bridged to an in/out fd pair — the
//                        stdin/stdout framed loop. It ends at EOF, `quit`,
//                        `shutdown`, or SIGTERM (which drains in-flight
//                        solves first).
//   serve_listener(...)  any number of concurrent clients on a Listener
//                        until a client sends `shutdown` or SIGTERM.
//                        Periodically flushes the warm state's journals, so
//                        a crash loses at most the last interval.
//   serve_unix(...)      serve_listener over a unix-domain socket.
//
// Request framing (one frame per line unless noted; blank lines and `#`
// comments are skipped):
//
//   {"v": 1, "id": "r1", "path": "a.inst"}   solve the instance file `path`
//   {"id": "r2", "instance": "bisched uniform v1\n..."}
//                                            solve inline native-format text
//   solve PATH [ID]                          plain-text form of the first
//   instance [ID]                            native instance text follows
//                                            directly on the stream (one
//                                            instance is consumed)
//   auth TOKEN                               presents the session's auth
//                                            token. Required as the first
//                                            frame when the server was
//                                            started with one; silent on
//                                            success (the next frame's
//                                            response is the ack), error +
//                                            session close on mismatch.
//                                            Ignored when no token is
//                                            configured.
//   stats [ID]                               one `"type": "stats"` frame:
//                                            per-type frame counters, uptime
//                                            and in-flight gauges, per-tier
//                                            cache sizes / hit counts /
//                                            evictions, store provenance
//                                            (docs/api.md has the schema)
//   metrics [ID]                             one `"type": "metrics"` frame:
//                                            the full registry in Prometheus
//                                            text exposition, JSON-escaped
//                                            in the frame's "body" member
//                                            (`bisched_cli metrics` decodes
//                                            and prints it)
//   quit                                     end THIS session; drain and
//                                            close (the server keeps
//                                            accepting other clients)
//   shutdown                                 end this session AND stop the
//                                            listener; serve_listener
//                                            returns once active sessions
//                                            drain
//
// JSON requests may override "alg", "eps", "all", and "budget_ms" per
// request (engine/api.hpp documents the full v1 schema). A malformed frame
// yields an error response, never a crash or a dropped request; after a
// malformed native `instance` body the session discards input up to the
// next blank line (bodies contain none) so the remainder of the broken body
// is not misread as frames.
//
// Ids: requests without an id get `#<seq>`, where `seq` is the server-wide
// admission counter — the collision-free correlation key across all
// concurrent sessions. The `#<digits>` form is therefore *reserved*: a
// client-supplied id matching it is rejected with an error response instead
// of silently risking collision with an auto-assigned one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "engine/api.hpp"
#include "engine/registry.hpp"
#include "engine/serve/event_loop.hpp"
#include "engine/store/warm_state.hpp"
#include "engine/transport.hpp"

namespace bisched {
class ThreadPool;
}  // namespace bisched

namespace bisched::engine {

struct ServeOptions {
  std::string alg = "auto";  // default per-request algorithm
  SolveOptions solve;
  unsigned threads = 0;          // 0 = default_thread_count()
  std::size_t max_inflight = 0;  // admission bound; 0 = 4 * threads
  bool stable_output = false;    // strip timing from responses (byte-stable)
  // Slow-request log: every solve whose end-to-end elapsed_ms is >= slow_ms
  // emits one structured line (trace id, tiers hit, span timings) to
  // `slow_log` (null = stderr). Negative = off; 0 logs every solve.
  double slow_ms = -1;
  std::ostream* slow_log = nullptr;
  // Nonempty: every session must present `auth TOKEN` (constant-time
  // compared) before any other frame. The CLI requires one for
  // --allow-remote TCP binds.
  std::string auth_token;
  // Per-session in-flight quota: a session holding this many unanswered
  // solves gets a structured `over-quota` error response for the excess
  // frame instead of a slot — one greedy client cannot starve the shared
  // admission bound. 0 = no per-session quota (the global bound still
  // applies, exerted as backpressure).
  std::size_t session_max_inflight = 0;
  // A session that has completed no frame for this long is closed without a
  // response (slowloris guard), counted as
  // bisched_serve_rejects_total{reason="idle-timeout"}. 0 = never reap.
  int idle_timeout_ms = 0;
  // Per-session pipelining bound — a session with this many solve frames in
  // flight has its reads parked (pure backpressure; the frames are answered,
  // unlike the `over-quota` refusal above) until completions drain. 0 = 64.
  std::size_t pipeline_depth = 0;
};

// One classified request frame — the grammar in the header comment above,
// shared by serve and the fleet router through the event loop. A frame with
// a malformed shape or a reserved `#<digits>` id comes back with `bad` set;
// the caller answers it as an error response.
struct Frame {
  enum class Kind { kSolve, kStats, kMetrics, kAuth, kQuit, kShutdown };
  Kind kind = Kind::kSolve;
  SolveRequest req;        // kSolve source/overrides; kStats/kMetrics id
  std::string auth_token;  // kAuth: the presented token, verbatim
  std::string bad;         // nonempty: malformed — answer with this error
};

// Classifies one trimmed, non-blank, non-comment frame line. A native
// `instance` header comes back classified (id validated, kind kSolve) with
// *needs_body set and req.parsed still empty: the event loop feeds the body's
// bytes to the session's InstanceParser (io/format.hpp) as they arrive.
Frame classify_frame(const std::string& frame, bool* needs_body);

struct ServeStats {
  // Admitted frames by type; `requests` is their sum (every frame admitted).
  // Split out so cache-hit-rate math over solve traffic is not skewed by
  // monitoring frames (stats/metrics probes), and protocol-level garbage is
  // visible as `malformed` rather than folded into solve errors.
  std::uint64_t requests = 0;
  std::uint64_t solve_frames = 0;
  std::uint64_t stats_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t auth_frames = 0;
  std::uint64_t malformed = 0;  // frames rejected before reaching a solve
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  // bad frames + failed solves
  std::uint64_t sessions = 0;
  CacheStats cache;
  CacheStats results;
};

// The resident core: the event loop's dispatcher for serve. Solve frames go
// to its pool, and the loop's series land in its registry. Construct once,
// run an EventLoop over it, read stats() at the end.
class Server final : public Dispatcher {
 public:
  // `warm` may be shared (e.g. pre-warmed by a batch run, or carrying a
  // persistent store); nullptr uses a private memory-only one.
  Server(const SolverRegistry& registry, const ServeOptions& options,
         WarmState* warm = nullptr);
  ~Server() override;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Set once a session consumes a `shutdown` frame; the loop polls it.
  bool shutdown_requested() const override { return shutdown_.load(); }

  WarmState& warm() { return *warm_; }
  ServeStats stats() const;

  // The shared registry (engine solve series + this server's frame/session
  // series) as Prometheus text exposition, cache stats mirrored and gauges
  // refreshed first. What the `metrics` frame carries.
  std::string metrics_text() const;

  double uptime_seconds() const;

 private:
  // The event loop's dispatcher seam (engine/serve/event_loop.hpp). A native
  // `instance` body arrives parsed (req.parsed); file requests and inline
  // instance text defer their IO/parse work to the worker so the loop keeps
  // admitting frames.
  Policy policy() const override;
  LoopMetrics loop_metrics() const override;
  bool admit(const Frame& frame, std::int64_t* seq) override;
  std::string probe(const Request& request, std::size_t session_inflight) override;
  std::string refuse(const Request& request) override;
  bool drop_connection() override;
  bool saturated() const override;
  void execute(Request request, Reply reply) override;
  int tick(Clock::time_point now) override;
  void request_shutdown() override { shutdown_.store(true); }
  void quiesce() override;

  // What execute_and_render hands back: the wire bytes plus the pre-strip
  // timing/trace the slow log wants (the worker logs at completion time).
  struct RenderedResponse {
    std::string line;       // one JSON Lines response, '\n'-terminated
    SolveResponse response; // post-strip, for the slow-log line's fields
    double elapsed_ms = 0;
    std::shared_ptr<const telemetry::Trace> trace;
    bool executed = false;  // false: malformed frame, never reached the engine
  };

  // Runs (or rejects) one pending frame and renders the response line. The
  // ok/error response counter is bumped here, BEFORE the loop writes — a
  // client that has read a response must find it reflected in the very next
  // stats frame (the lockstep test pins this). Executed frames and refusals
  // answer through this one path so their bytes cannot drift.
  RenderedResponse execute_and_render(const Request& pending);
  // Introspection frames, answered inline (no pool round trip):
  // `"type": "stats"` (flat counters) and `"type": "metrics"` (Prometheus
  // exposition in the "body" member).
  std::string stats_frame_json(const std::string& id, std::int64_t seq,
                               std::size_t session_inflight) const;
  std::string metrics_frame_json(const std::string& id, std::int64_t seq) const;
  void maybe_slow_log(const SolveResponse& response, double elapsed_ms,
                      const std::shared_ptr<const telemetry::Trace>& trace);

  const SolverRegistry& registry_;
  ServeOptions options_;
  std::size_t max_inflight_;
  WarmState* warm_;
  std::unique_ptr<WarmState> owned_warm_;
  std::unique_ptr<ThreadPool> pool_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  Clock::time_point last_flush_ = start_;  // the event loop's journal flushes

  mutable std::mutex mu_;  // guards the admission state below
  std::size_t inflight_ = 0;  // global admission bound across sessions
  std::atomic<std::int64_t> seq_{0};

  // Counters/gauges live in warm_->telemetry()'s registry so one scrape sees
  // engine and serve series together; updates are lock-free (the lockstep
  // count-before-write invariant only needs the increment ordered before the
  // response write, which an atomic inc is).
  telemetry::Counter* frames_solve_ = nullptr;
  telemetry::Counter* frames_stats_ = nullptr;
  telemetry::Counter* frames_metrics_ = nullptr;
  telemetry::Counter* frames_auth_ = nullptr;
  telemetry::Counter* frames_malformed_ = nullptr;
  telemetry::Counter* responses_ok_ = nullptr;
  telemetry::Counter* responses_error_ = nullptr;
  telemetry::Counter* rejects_auth_ = nullptr;
  telemetry::Counter* rejects_quota_ = nullptr;
  telemetry::Counter* rejects_idle_ = nullptr;
  telemetry::Counter* sessions_total_ = nullptr;
  telemetry::Gauge* sessions_active_ = nullptr;
  telemetry::Gauge* inflight_gauge_ = nullptr;
  // Event-loop series: sessions registered on the loop, how many of them
  // are read-parked by backpressure, the deepest per-session pipeline
  // ever observed, and loop wakeups (epoll_wait returns).
  telemetry::Gauge* open_sessions_ = nullptr;
  telemetry::Gauge* parked_sessions_ = nullptr;
  telemetry::Gauge* pipeline_peak_ = nullptr;
  telemetry::Counter* loop_wakeups_ = nullptr;
  telemetry::Gauge* uptime_gauge_ = nullptr;

  std::mutex slow_log_mu_;  // one slow-log line at a time
  std::atomic<bool> shutdown_{false};
};

// One session bridged to `in_fd`/`out_fd` (EventLoop::run_stdio; neither
// fd is closed): runs until EOF, a `quit`/`shutdown` frame, or SIGTERM,
// drains, flushes the warm state, and returns the stats. *error is set when
// the bridge cannot be built. The stdin/stdout framed loop.
ServeStats serve(const SolverRegistry& registry, int in_fd, int out_fd,
                 const ServeOptions& options, std::string* error,
                 WarmState* warm = nullptr);

// Serves concurrent clients on an already-open listener from one resident
// Server until a client sends `shutdown`, SIGTERM, or the listener fails.
// When `warm` is persistent its journals are flushed periodically (and once
// more on return). Returns aggregate stats; on listener failure returns the
// stats so far with *error set.
ServeStats serve_listener(const SolverRegistry& registry, Listener& listener,
                          const ServeOptions& options, std::string* error,
                          WarmState* warm = nullptr);

// serve_listener over a unix-domain socket at `socket_path`. On listener
// setup failure returns zero stats with *error set.
ServeStats serve_unix(const SolverRegistry& registry, const std::string& socket_path,
                      const ServeOptions& options, std::string* error,
                      WarmState* warm = nullptr);

}  // namespace bisched::engine
