// Backend process supervision for the fleet router.
//
// The supervisor owns N local backend serve processes: it spawns each as
// `<cli> serve --listen=tcp:127.0.0.1:0 --store=<dir>/backend-<i> ...`,
// learns the kernel-assigned port by parsing the child's stderr banner
// ("serve: listening on tcp:127.0.0.1:PORT"), and keeps the fleet alive:
//
//   crash     waitpid(WNOHANG) from the owner's poll() notices the death,
//             and the slot respawns after a bounded exponential backoff
//             (backoff_initial_ms doubling to backoff_max_ms, reset by a
//             life longer than storm_quick_death_ms).
//   storm     a backend that keeps dying young (storm_limit consecutive
//             lives shorter than storm_quick_death_ms) trips a circuit
//             breaker: the slot goes kBroken and stays down — a poisoned
//             store or bad binary must not burn CPU forking forever. The
//             router routes around broken slots like dead ones.
//   stderr    each child's stderr is relayed line-by-line to our stderr
//             under a "[backend <i>] " prefix by a per-child reader thread
//             (which is also what sees the port banner), so backend logs
//             stay observable and the pipe can never fill and wedge the
//             child.
//
// Each slot carries a monotonically increasing generation; the router uses
// a generation change to reset its health record for the slot. The
// supervisor itself is mechanism only — it never decides where requests go.
//
// Threading: poll() must be called from one thread at a time (the router's
// event-loop tick); the read-side accessors are safe from any thread.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bisched::engine::fleet {

enum class BackendState {
  kStarting,    // spawned, waiting for the port banner
  kRunning,     // banner seen; port() is live
  kRespawning,  // died; waiting out the backoff
  kBroken,      // circuit breaker open: respawn storm, gave up
  kStopped,     // stop() ran
};

const char* to_string(BackendState s);

struct SupervisorOptions {
  std::string cli_path;                 // serving binary (bisched_cli)
  std::vector<std::string> serve_args;  // args after "serve" (listen/store added per slot)
  std::string store_dir;                // "" = backends run memory-only
  std::size_t backends = 2;
  int spawn_wait_ms = 15000;        // start(): max wait for all port banners
  int backoff_initial_ms = 100;     // first respawn delay after a death
  int backoff_max_ms = 5000;        // backoff cap
  int storm_quick_death_ms = 1000;  // a life shorter than this is a "quick death"
  int storm_limit = 5;              // consecutive quick deaths before kBroken
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();  // stop()s if still running
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Spawns every backend and waits (up to spawn_wait_ms) for all of them to
  // announce a port. False + *error if any slot failed to come up.
  bool start(std::string* error);

  // SIGTERM to every live backend (serve drains gracefully), escalating to
  // SIGKILL after a grace period; reaps and joins relays. Idempotent.
  void stop();

  // One maintenance tick: reap deaths, schedule/execute respawns. Call
  // periodically (~50ms) from a single thread.
  void poll();

  std::size_t size() const;
  BackendState state(std::size_t i) const;
  int port(std::size_t i) const;  // 0 unless kRunning
  pid_t pid(std::size_t i) const;
  // Bumps on every (re)spawn; a change tells the router to forget the old
  // process's health record.
  std::uint64_t generation(std::size_t i) const;

  std::uint64_t respawns() const;       // total successful respawns
  std::uint64_t breaker_trips() const;  // slots that went kBroken

 private:
  struct Backend {
    pid_t pid = -1;
    int port = 0;
    BackendState state = BackendState::kStopped;
    std::uint64_t generation = 0;
    int backoff_ms = 0;
    int quick_deaths = 0;
    std::chrono::steady_clock::time_point spawned_at{};
    std::chrono::steady_clock::time_point respawn_at{};
    std::thread relay;  // stderr reader; joined on death/stop
  };

  bool spawn_locked(std::size_t i, std::string* error);
  void relay_loop(std::size_t i, int fd, std::uint64_t generation);
  void note_death_locked(std::size_t i, std::thread* relay_out);

  SupervisorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled when a port banner lands
  std::vector<Backend> backends_;
  std::uint64_t respawns_ = 0;
  std::uint64_t breaker_trips_ = 0;
  bool stopped_ = false;
};

}  // namespace bisched::engine::fleet
