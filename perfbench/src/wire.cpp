#include "wire.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <charconv>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Process groups of the programs started and not yet stopped, so a signal
// that ends the benchmark ends them too.
constexpr int kMaxGroups = 64;
std::atomic<pid_t> g_groups[kMaxGroups];
std::atomic<int> g_group_count{0};

extern "C" void stop_programs_and_exit(int sig) {
  const int n = std::min(g_group_count.load(), kMaxGroups);
  for (int i = 0; i < n; ++i) {
    const pid_t group = g_groups[i].load();
    if (group > 0) ::kill(-group, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void prepare_process() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  ::signal(SIGPIPE, SIG_IGN);
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) ::signal(sig, stop_programs_and_exit);
}

// ------------------------------------------------------------------ CPUs ---

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

namespace {

void add_threads(pid_t pid, std::vector<pid_t>* out) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return;
  while (dirent* e = ::readdir(tasks)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out->push_back(std::atoi(e->d_name));
  }
  ::closedir(tasks);
}

}  // namespace

std::vector<pid_t> own_threads() {
  std::vector<pid_t> out;
  add_threads(::getpid(), &out);
  return out;
}

void set_cpus(const std::vector<pid_t>& tids, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  for (pid_t tid : tids) ::sched_setaffinity(tid, sizeof set, &set);
}

// ------------------------------------------------------------------ Conn ---

std::optional<Conn> Conn::open(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return std::nullopt;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return Conn(fd);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), pos_(other.pos_) {
  other.fd_ = -1;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::send_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int Conn::try_line(std::string* line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return 1;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    if (n <= 0) return -1;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::read_line(std::string* line, int timeout_ms) {
  for (;;) {
    const int got = try_line(line);
    if (got != 0) return got > 0;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
  }
}

// ---------------------------------------------------------------- Server ---

namespace {

constexpr int kReplyTimeoutMs = 60000;

bool alive(pid_t pid) { return pid > 0 && ::kill(pid, 0) == 0; }

// Waits for our child `pid` up to `timeout_s`; true once it has exited.
bool wait_exit(pid_t pid, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

std::unique_ptr<Server> Server::spawn(const std::string& cli,
                                      const std::vector<std::string>& args,
                                      const std::string& dir, const std::string& socket_name,
                                      std::string* error) {
  std::vector<std::string> argv_s;
  argv_s.push_back(cli);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = dir + "/log";

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || in < 0 || ::chdir(dir.c_str()) != 0) ::_exit(127);
    ::setpgid(0, 0);  // its own group, which a router's backends join
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(out, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also here: whichever runs first wins the race
  std::unique_ptr<Server> s(new Server());
  s->pid_ = pid;
  s->group_slot_ = g_group_count.fetch_add(1);
  if (s->group_slot_ < kMaxGroups) g_groups[s->group_slot_].store(pid);
  s->dir_ = dir;
  s->socket_ = dir + "/" + socket_name;
  return s;
}

Server::~Server() {
  if (pid_ > 0) {
    ::kill(-pid_, SIGKILL);
    wait_exit(pid_, 5);
  }
  reap_children();
  if (group_slot_ < kMaxGroups) g_groups[group_slot_].store(0);
}

std::vector<pid_t> Server::threads() const {
  std::vector<pid_t> out;
  if (pid_ <= 0) return out;
  add_threads(pid_, &out);
  for (pid_t child : children()) add_threads(child, &out);
  return out;
}

std::vector<pid_t> Server::children() const {
  std::vector<pid_t> out;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return out;
  while (dirent* e = ::readdir(proc)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/") + e->d_name + "/stat");
    std::string text;
    std::getline(stat, text);
    // pid (comm) state ppid ... — comm may hold spaces, so parse after ')'.
    const auto close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 1));
    std::string state;
    pid_t ppid = 0;
    rest >> state >> ppid;
    if (ppid == pid_) out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(proc);
  return out;
}

void Server::reap_children() {
  for (pid_t child : seen_children_) {
    if (alive(child)) ::kill(child, SIGKILL);
  }
  for (pid_t child : seen_children_) wait_exit(child, 5);
  seen_children_.clear();
}

bool Server::wait_ready(std::size_t backends, double timeout_s, std::string* error) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "program exited during start-up (see " + dir_ + "/log)";
      return false;
    }
    if (auto conn = Conn::open(socket_)) {
      if (backends == 0) return true;
      std::string line;
      if (conn->send_all("stats\n") && conn->read_line(&line, kReplyTimeoutMs)) {
        const auto healthy = json_number(line, "healthy");
        if (healthy.has_value() && *healthy == static_cast<double>(backends)) {
          seen_children_ = children();
          return true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backends == 0 ? 200 : 2000));
  }
  *error = "program not ready within " + std::to_string(timeout_s) + " s";
  return false;
}

std::string Server::request(const std::string& frame) {
  auto conn = Conn::open(socket_);
  std::string line;
  if (!conn || !conn->send_all(frame) || !conn->read_line(&line, kReplyTimeoutMs)) return "";
  return line;
}

double Server::peak_rss_mb() {
  if (pid_ <= 0) return 0;
  double total = vm_hwm_mb(pid_);
  for (pid_t child : children()) {
    total += vm_hwm_mb(child);
    if (std::find(seen_children_.begin(), seen_children_.end(), child) == seen_children_.end()) {
      seen_children_.push_back(child);
    }
  }
  return total;
}

bool Server::stop(double timeout_s) {
  if (pid_ <= 0) return true;
  bool clean = true;
  if (auto conn = Conn::open(socket_)) conn->send_all("shutdown\n");
  if (!wait_exit(pid_, timeout_s)) {
    clean = false;
    ::kill(pid_, SIGTERM);
    if (!wait_exit(pid_, 2)) {
      ::kill(-pid_, SIGKILL);
      wait_exit(pid_, 5);
    }
  }
  pid_ = -1;
  reap_children();
  return clean;
}

// -------------------------------------------------------- host reference ---

namespace {

double thread_cpu_ms() {
  timespec t;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

volatile std::uint64_t g_reference_sink = 0;

}  // namespace

double host_reference_ms() {
  thread_local std::vector<std::uint64_t> buf(16384);
  const double t0 = thread_cpu_ms();
  std::uint64_t x = 12345;
  for (std::uint64_t& v : buf) {
    x += 0x9e3779b97f4a7c15ull;
    const std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = z ^ (z >> 27);
  }
  std::sort(buf.begin(), buf.end());
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : buf) h = (h ^ v) * 1099511628211ull;
  g_reference_sink = h;
  return thread_cpu_ms() - t0;
}

// ----------------------------------------------------------- closed loop ---

namespace {

struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t busy = 0;  // user, nice, system, irq, softirq
  std::uint64_t total = 0;
};

// The aggregate `cpu` line of /proc/stat: user .. steal, in ticks.
std::optional<CpuTimes> read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return std::nullopt;
    t.total += v;
    if (i == 7) t.steal = v;
    if (i != 3 && i != 4 && i != 7) t.busy += v;  // not idle, iowait or steal
  }
  return t;
}

// Records, for each kIntervalS after `phase->start_ns` until destroyed,
// the steal share and one timing of the host reference.
class IntervalSampler {
 public:
  explicit IntervalSampler(Phase* phase) : thread_([this, phase] { run(phase); }) {}
  IntervalSampler(const IntervalSampler&) = delete;
  IntervalSampler& operator=(const IntervalSampler&) = delete;
  ~IntervalSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run(Phase* phase) {
    std::optional<CpuTimes> prev = read_cpu_times();
    if (!prev) return;
    const auto interval = std::chrono::nanoseconds(static_cast<std::int64_t>(kIntervalS * 1e9));
    for (int i = 1;; ++i) {
      const std::chrono::steady_clock::time_point due(std::chrono::nanoseconds(phase->start_ns) +
                                                      i * interval);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due, [this] { return done_; })) return;
      }
      const std::optional<CpuTimes> cur = read_cpu_times();
      if (!cur) return;
      const double total = static_cast<double>(cur->total - prev->total);
      phase->steal.push_back(total > 0 ? static_cast<double>(cur->steal - prev->steal) / total : 0);
      phase->steal_ticks += cur->steal - prev->steal;
      phase->busy_ticks += cur->busy - prev->busy;
      phase->reference_ms.push_back(host_reference_ms());
      prev = cur;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace

Phase run_closed_loop(const std::string& socket, int connections, double seconds,
                      const FrameSource& source, bool traced,
                      const std::function<void(std::size_t)>& on_interval) {
  // One connection's state: the request in flight, and its next frame,
  // generated while the reply is on the way so generation never sits
  // between a send and its timestamp.
  struct Lane {
    explicit Lane(std::optional<Conn> c) : conn(std::move(c)) {}
    std::optional<Conn> conn;
    Sample cur;
    bool waiting = false;
    bool ready = false;
    std::uint64_t slot = 0;
    std::string frame;
  };
  Phase phase;
  std::vector<Lane> lanes;
  std::uint64_t next_slot = 0;
  bool exhausted = false;
  const auto prepare = [&](Lane& lane) {
    if (exhausted) return;
    lane.slot = next_slot++;
    lane.ready = source(lane.slot, &lane.frame);
    exhausted = !lane.ready;
  };
  for (int c = 0; c < connections; ++c) {
    lanes.emplace_back(Conn::open(socket));
    prepare(lanes.back());
  }
  const auto finish = [&](Lane& lane, bool replied) {
    if (replied) {
      lane.cur.replied_ns = now_ns();
    } else {
      lane.conn.reset();  // a broken connection takes no more requests
    }
    phase.samples.push_back(std::move(lane.cur));
    lane.cur = Sample{};
    lane.waiting = false;
  };

  if (on_interval) on_interval(0);
  phase.start_ns = now_ns();
  std::size_t interval = 0;
  std::optional<IntervalSampler> sampler;
  sampler.emplace(&phase);
  const std::int64_t deadline =
      seconds > 0 ? phase.start_ns + static_cast<std::int64_t>(seconds * 1e9) : INT64_MAX;
  for (;;) {
    const std::size_t at = static_cast<std::size_t>(
        static_cast<double>(now_ns() - phase.start_ns) / (kIntervalS * 1e9));
    if (on_interval && at > interval) on_interval(interval = at);
    bool any_waiting = false;
    for (Lane& lane : lanes) {
      if (!lane.waiting && lane.ready && now_ns() < deadline) {
        lane.ready = false;
        lane.cur.slot = lane.slot;
        if (!lane.conn) {
          phase.samples.push_back(std::move(lane.cur));
          lane.cur = Sample{};
          continue;
        }
        lane.cur.sent_ns = now_ns();
        if (!lane.conn->send_all(lane.frame)) {
          finish(lane, false);
          continue;
        }
        if (traced) lane.cur.flushed_ns = now_ns();
        lane.waiting = true;
        prepare(lane);
      }
      any_waiting = any_waiting || lane.waiting;
    }
    if (!any_waiting) break;

    // Block until a reply (or the reply deadline) arrives on any connection.
    bool got = false;
    while (!got) {
      for (Lane& lane : lanes) {
        if (!lane.waiting) continue;
        const int r = lane.conn->try_line(&lane.cur.reply);
        if (r != 0) {
          finish(lane, r > 0);
          got = true;
        }
      }
      if (got) break;
      std::vector<pollfd> fds;
      for (Lane& lane : lanes) {
        if (lane.waiting) fds.push_back({lane.conn->fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 1000);
      for (Lane& lane : lanes) {
        if (lane.waiting && now_ns() - lane.cur.sent_ns > kReplyTimeoutMs * 1000000ll) {
          finish(lane, false);
          got = true;
        }
      }
    }
  }
  sampler.reset();
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.slot < b.slot; });
  return phase;
}

// ------------------------------------------------------------------ JSON ---

namespace {

// Position just past `"key": ` in a flat JSON object, or npos.
std::size_t member(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? at : at + needle.size();
}

}  // namespace

std::optional<std::string> json_string(const std::string& line, const std::string& key) {
  std::size_t i = member(line, key);
  if (i == std::string::npos || i >= line.size() || line[i] != '"') return std::nullopt;
  std::string out;
  for (++i; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) break;
    switch (line[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        unsigned code = 0;
        if (i + 4 >= line.size()) return std::nullopt;
        std::from_chars(line.data() + i + 1, line.data() + i + 5, code, 16);
        out += code < 0x80 ? static_cast<char>(code) : '?';
        i += 4;
        break;
      }
      default: out += line[i];
    }
  }
  return std::nullopt;
}

std::optional<double> json_number(const std::string& line, const std::string& key) {
  const std::size_t i = member(line, key);
  if (i == std::string::npos) return std::nullopt;
  double value = 0;
  const auto res = std::from_chars(line.data() + i, line.data() + line.size(), value);
  if (res.ec != std::errc()) return std::nullopt;
  return value;
}

std::optional<double> prometheus_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  const std::string prefix = name + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtod(line.c_str() + prefix.size(), nullptr);
  }
  return std::nullopt;
}

}  // namespace perfbench
