// The program side of the benchmark: spawning `bisched_cli serve` / `route`,
// unix-socket clients, and the closed-loop load generator.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();  // steady clock

// Call once at start: makes this process the subreaper of everything it
// spawns (a backend orphaned by a killed router is still ours to reap),
// ignores SIGPIPE, and makes SIGTERM, SIGINT and SIGHUP kill every program
// the benchmark started before the benchmark itself ends.
void prepare_process();

// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
// Every thread of this process.
std::vector<pid_t> own_threads();
// Restricts the threads `tids` to `cpus`; a program they start inherits it.
void set_cpus(const std::vector<pid_t>& tids, const std::vector<int>& cpus);

// A connected unix-socket client for the newline-framed serve protocol.
class Conn {
 public:
  static std::optional<Conn> open(const std::string& path);
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  bool send_all(const std::string& data);
  // One reply line without its '\n'; false on EOF, error or timeout.
  bool read_line(std::string* line, int timeout_ms);
  // Without blocking: 1 = a line, 0 = none yet, -1 = EOF or error.
  int try_line(std::string* line);
  int fd() const { return fd_; }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

// One spawned program process listening on a unix socket.
class Server {
 public:
  // Runs `cli args...` with working directory `dir` (stdout and stderr to
  // dir/log); `socket_name` is the --listen path relative to `dir`.
  static std::unique_ptr<Server> spawn(const std::string& cli,
                                       const std::vector<std::string>& args,
                                       const std::string& dir, const std::string& socket_name,
                                       std::string* error);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();  // kills whatever still runs

  // The socket path relative to the benchmark's working directory.
  const std::string& socket() const { return socket_; }

  // Ready = the socket accepts; for a router (backends > 0), additionally
  // a `stats` frame reports that many healthy backends.
  bool wait_ready(std::size_t backends, double timeout_s, std::string* error);

  // One frame on a fresh connection and its reply line ("" on failure).
  std::string request(const std::string& frame);

  // Every thread of the process and of its children.
  std::vector<pid_t> threads() const;

  // Peak resident set (VmHWM) of the process plus its children, in MiB.
  double peak_rss_mb();

  // `shutdown` frame, then wait; escalates to signals after `timeout_s`.
  // Returns false when it had to kill.
  bool stop(double timeout_s);

 private:
  Server() = default;
  std::vector<pid_t> children() const;
  void reap_children();

  pid_t pid_ = -1;  // also its process group
  int group_slot_ = 0;
  std::string dir_;
  std::string socket_;
  std::vector<pid_t> seen_children_;
};

// One request/reply exchange of a closed-loop phase.
struct Sample {
  std::uint64_t slot = 0;
  std::int64_t sent_ns = 0;
  std::int64_t flushed_ns = 0;  // the frame was fully written (traced loops only)
  std::int64_t replied_ns = 0;  // 0 when no reply arrived
  std::string reply;
  double latency_ms() const { return static_cast<double>(replied_ns - sent_ns) / 1e6; }
};

// CPU milliseconds of a fixed computation of the benchmark's own (it
// fills, sorts and hashes 16384 seeded integers, and calls no library
// code). It is thread CPU time, so sharing the CPU with the program does
// not count; what moves it is how fast the host runs this vCPU right now.
double host_reference_ms();

// A phase's intervals: it records host steal and the host reference per
// interval, and calls its on_interval hook as each one starts.
inline constexpr double kIntervalS = 0.5;

struct Phase {
  std::vector<Sample> samples;  // ordered by slot
  std::int64_t start_ns = 0;
  // Per kIntervalS from start_ns: the share of this machine's CPU time
  // the hypervisor withheld (/proc/stat steal ÷ total). Empty when the
  // kernel does not report it.
  std::vector<double> steal;
  // Over the whole intervals: /proc/stat ticks the hypervisor withheld
  // from vCPUs that wanted to run, and ticks they ran.
  std::uint64_t steal_ticks = 0;
  std::uint64_t busy_ticks = 0;
  // Per kIntervalS: one host_reference_ms() on the sampling thread, which
  // runs wherever the benchmark's threads may (the program's CPU, when the
  // workload keeps to one).
  std::vector<double> reference_ms;
};

// Produces the frame for one slot; false = the source is exhausted.
using FrameSource = std::function<bool(std::uint64_t slot, std::string* frame)>;

// Closed loop: each of `connections` connections, all driven by the calling
// thread, sends its next frame only after the previous reply arrived. Slots
// are handed out in order until the source runs dry or `seconds` pass
// (<= 0: no limit). A connection that fails records its sample without a
// reply and stops.
// `traced` also stamps each sample's flushed_ns, between send and reply.
// `on_interval(i)`, if set, runs before the first send of interval i.
Phase run_closed_loop(const std::string& socket, int connections, double seconds,
                      const FrameSource& source, bool traced = false,
                      const std::function<void(std::size_t)>& on_interval = {});

// Flat-JSON member access for reply lines as serve writes them.
std::optional<std::string> json_string(const std::string& line, const std::string& key);
std::optional<double> json_number(const std::string& line, const std::string& key);

// The value of an unlabelled Prometheus sample `name <value>` in an
// exposition body (a `metrics` frame's unescaped "body").
std::optional<double> prometheus_value(const std::string& body, const std::string& name);

}  // namespace perfbench
