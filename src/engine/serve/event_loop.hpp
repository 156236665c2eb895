// The epoll front end shared by serve and route: one readiness loop serves
// every client session, socket and stdio alike.
//
// A session is cheap heap state — an fd, a read buffer, a write buffer, and
// a tiny frame state machine — so tens of thousands of open connections cost
// megabytes, and exactly one thread does all the IO:
//
//   epoll_wait ─┬─ listener readable  → accept4(NONBLOCK), register session
//               ├─ session readable   → append to rbuf → frame state machine
//               │                       (line mode | instance-body parse |
//               │                        malformed-body discard) → dispatch
//               ├─ completion eventfd → drain the finished-response queue,
//               │                       flush responses in per-session seq
//               │                       order, unpark readers
//               ├─ session writable   → resume a partial response write
//               └─ dispatcher fd      → Dispatcher::on_ready (the router's
//                                       backend links)
//
// What a frame *means* is the Dispatcher's business; the loop owns sessions,
// framing, admission, parking and write queues, once, for both front ends:
//
//   Server (engine/serve.hpp)       executes solve frames on its solver
//                                   pool; a worker hands the rendered line
//                                   back over an eventfd.
//   fleet::Router (fleet/router.hpp) forwards solve frames over persistent
//                                   backend links registered on this same
//                                   epoll and answers on the loop thread —
//                                   no pool, no thread per client.
//
// Stdio is one more session: run_stdio() adopts one end of a socketpair and
// a poll() pump thread bridges the other end to the stdin/stdout fds,
// because a regular-file stdin cannot be registered with epoll.
//
// Because the loop never blocks on one client, a client may PIPELINE
// requests — send many frames before reading — and responses come back in
// send order: executed frames are reordered per session by a ticket
// sequence; stats/metrics probes, auth errors, and over-quota refusals are
// answered inline and may overtake queued solves.
//
// Admission is backpressure, not a session cap: when the dispatcher is
// saturated (its global in-flight bound), or one session exceeds its
// pipeline depth, or a peer stops reading its responses, that session's
// reads are PARKED (its EPOLLIN interest dropped, bytes left in the kernel
// buffer) until completions drain — the TCP window does the rest.
// EMFILE/ENFILE on accept backs off and sheds via a reserve fd instead of
// exiting, and an idle timeout reaps sessions that never complete a frame
// (slowloris), counted as bisched_serve_rejects_total{reason="idle-timeout"}.
//
// The loop also owns auth-first frames, the per-session quota, the fault
// hook, `quit`/`shutdown` frames and SIGTERM drain. docs/serve.md walks the
// architecture; tests/engine/serve_golden_test.cpp pins serve's wire bytes
// over a socket and stdio, tests/engine/route_golden_test.cpp the router's.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/api.hpp"

namespace bisched::engine {

class EventLoop;
class Listener;
struct Frame;

namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry

// The address of one executed frame's answer. send() hands the finished
// response line back to the loop — from any thread, exactly once.
struct Reply {
  EventLoop* loop = nullptr;
  std::uint64_t session = 0;
  std::uint64_t ticket = 0;
  void send(std::string line) const;
};

// The seam between the loop and what it serves.
class Dispatcher {
 public:
  using Clock = std::chrono::steady_clock;

  // One admitted frame: seq stamped, `#<seq>` filled in when the client
  // gave no id.
  struct Request {
    SolveRequest req;
    std::int64_t seq = 0;
    bool stats = false;    // `stats [ID]` introspection frame, answered inline
    bool metrics = false;  // `metrics [ID]` scrape frame, answered inline
    std::string bad;       // nonempty: malformed frame, answer with this error
  };

  // The session rules the loop enforces for this dispatcher.
  struct Policy {
    std::string auth_token;          // nonempty: `auth TOKEN` must come first
    std::size_t session_quota = 0;   // over-quota refusal bound; 0 = none
    std::size_t pipeline_depth = 0;  // per-session park bound; 0 = 64
    int idle_timeout_ms = 0;         // reap sessions idle this long; 0 = never
  };

  // The loop's own series; any may be null (the router keeps none of them).
  struct LoopMetrics {
    telemetry::Counter* sessions_total = nullptr;
    telemetry::Gauge* sessions_active = nullptr;
    telemetry::Gauge* open_sessions = nullptr;
    telemetry::Gauge* parked_sessions = nullptr;
    telemetry::Gauge* pipeline_peak = nullptr;
    telemetry::Counter* wakeups = nullptr;
    telemetry::Counter* rejects_auth = nullptr;
    telemetry::Counter* rejects_quota = nullptr;
    telemetry::Counter* rejects_idle = nullptr;
  };

  Dispatcher() = default;
  virtual ~Dispatcher() = default;
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  virtual Policy policy() const = 0;
  virtual LoopMetrics loop_metrics() const { return {}; }

  // Called once by EventLoop::run before the first wait; `loop` outlives
  // every later call.
  virtual void attach(EventLoop& loop) { (void)loop; }

  // Accounts one complete frame (quit/shutdown excluded) and stamps its seq.
  // False: the dispatcher ignores the frame outright — no seq, no answer.
  virtual bool admit(const Frame& frame, std::int64_t* seq) = 0;

  // Inline answers, rendered and counted on the loop thread: a stats or
  // metrics probe, and a refusal (request.bad set by an auth or quota gate).
  virtual std::string probe(const Request& request, std::size_t session_inflight) = 0;
  virtual std::string refuse(const Request& request) = 0;

  // Fault hook, asked once per well-formed solve frame: true closes the
  // session with the response unsent.
  virtual bool drop_connection() { return false; }

  // True while the global in-flight bound is reached: sessions park.
  virtual bool saturated() const = 0;

  // Executes a solve (or malformed) frame; the answer goes to reply.send().
  virtual void execute(Request request, Reply reply) = 0;

  // Readiness on an fd registered through EventLoop::watch.
  virtual void on_ready(std::uint64_t tag, std::uint32_t events) {
    (void)tag;
    (void)events;
  }

  // Runs once per loop iteration, before the wait: timers and deferred IO.
  // Returns the longest the loop may sleep before the next call, in ms.
  virtual int tick(Clock::time_point now) = 0;

  virtual bool shutdown_requested() const = 0;
  virtual void request_shutdown() = 0;

  // The loop is returning: wait out work still running off the loop thread.
  virtual void quiesce() {}
};

class EventLoop {
 public:
  // Serves `listener` (null for run_stdio).
  EventLoop(Dispatcher& dispatcher, Listener* listener);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs until a `shutdown` frame, SIGTERM, or listener failure; drains
  // in-flight work and flushes session write queues before returning. False
  // = the loop stopped because the listener (or the loop's own epoll
  // plumbing) failed, not because shutdown was requested.
  bool run();

  // Runs a listener-less loop over one session bridged to in_fd/out_fd
  // (stdin/stdout, pipes or regular files; neither is closed) until that
  // session ends, a `shutdown` frame, or SIGTERM. False with *error set when
  // the bridge cannot be built or the loop fails.
  bool run_stdio(int in_fd, int out_fd, std::string* error);

  // Dispatcher fds (loop thread only): events arrive at
  // Dispatcher::on_ready(tag, events). watch() adds or re-arms.
  bool watch(int fd, std::uint64_t tag, std::uint32_t events);
  void unwatch(int fd);

 private:
  friend struct Reply;
  void complete(std::uint64_t session, std::uint64_t ticket, std::string line);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bisched::engine
