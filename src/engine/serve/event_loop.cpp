#include "engine/serve/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/serve.hpp"
#include "engine/transport.hpp"
#include "engine/telemetry/metrics.hpp"
#include "io/format.hpp"

namespace bisched::engine {

namespace {

using Clock = std::chrono::steady_clock;

// How long shutdown waits for a slow reader before dropping its responses.
constexpr std::chrono::seconds kShutdownFlushGrace(5);

// A peer that queues responses it never reads gets its requests parked too:
// past this many unflushed response bytes the session stops decoding frames
// until the socket drains.
constexpr std::size_t kWriteHighWater = std::size_t{4} << 20;

// Default per-session pipeline bound when Policy::pipeline_depth is 0.
constexpr std::size_t kDefaultPipelineDepth = 64;

// SIGTERM = graceful drain: stop reading, finish in-flight work, flush. The
// supervisor stops fleet backends this way.
std::atomic<bool> g_drain{false};
void drain_handler(int) { g_drain.store(true); }

// Strips every character istream extraction also treats as whitespace
// (\v and \f included), so a whitespace-only line is always skipped as a
// blank frame and never reaches classify_frame as an empty word list.
std::string trimmed(const std::string& line) {
  const auto start = line.find_first_not_of(" \t\r\v\f");
  if (start == std::string::npos) return "";
  const auto end = line.find_last_not_of(" \t\r\v\f");
  return line.substr(start, end - start + 1);
}

// Constant-time token comparison: the loop shape depends only on the
// lengths, never on where the strings first differ, so response timing
// cannot be used to guess a remote token byte by byte.
bool token_equal(const std::string& a, const std::string& b) {
  const std::size_t n = std::max(a.size(), b.size());
  unsigned diff = static_cast<unsigned>(a.size() ^ b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff |= static_cast<unsigned>(ca ^ cb);
  }
  return diff == 0;
}

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // stdout gone: the answers have nowhere to go
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

// Bridges the stdio fds to `sock`, the peer of the loop's one stdio session:
// stdin bytes go in, response bytes come out. A thread with poll() rather
// than the loop itself, because a regular-file stdin cannot be registered
// with epoll. Each read takes what is available, so a lockstep client on a
// pipe or tty is answered frame by frame. `sock` is nonblocking. Returns
// once the loop closes the session.
void pump_stdio(int in_fd, int out_fd, int sock) {
  std::string pending;  // stdin bytes not yet accepted by the socket
  std::size_t off = 0;
  bool in_open = true;
  bool write_shut = false;
  char buf[1 << 16];
  while (true) {
    if (!in_open && off == pending.size() && !write_shut) {
      ::shutdown(sock, SHUT_WR);  // the session reads EOF after the last frame
      write_shut = true;
    }
    pollfd fds[2] = {{sock, POLLIN, 0}, {in_fd, POLLIN, 0}};
    if (off < pending.size()) fds[0].events |= POLLOUT;
    const nfds_t count = in_open && off == pending.size() ? 2 : 1;
    if (::poll(fds, count, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[0].revents & POLLOUT) != 0) {
      const ssize_t n = ::write(sock, pending.data() + off, pending.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        in_open = false;  // the session is gone; drop the rest of stdin
        off = pending.size();
      }
    }
    if (off == pending.size()) {
      pending.clear();
      off = 0;
    }
    if (count == 2 && (fds[1].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0) {
      const ssize_t n = ::read(in_fd, buf, sizeof(buf));
      if (n > 0) {
        pending.assign(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        in_open = false;
      }
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t n = ::read(sock, buf, sizeof(buf));
      if (n > 0) {
        write_all(out_fd, buf, static_cast<std::size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        return;
      }
    }
  }
}

}  // namespace

// -------------------------------------------------------------- event loop ---

struct EventLoop::Impl {
  // epoll tags: sessions get ids >= kFirstSession so the two singleton fds
  // can share the same u64 dispatch key space; dispatcher fds carry the top
  // bit.
  static constexpr std::uint64_t kListenerTag = 0;
  static constexpr std::uint64_t kWakeTag = 1;
  static constexpr std::uint64_t kFirstSession = 2;
  static constexpr std::uint64_t kDispatcherBit = std::uint64_t{1} << 63;

  struct Session {
    std::uint64_t sid = 0;
    int fd = -1;

    // Read side: the frame state machine over an incremental buffer.
    std::string rbuf;
    std::size_t rpos = 0;
    enum class Mode { kLine, kBody, kDiscard } mode = Mode::kLine;
    InstanceParser parser;  // the pending body, parsed as its bytes arrive
    Frame body_frame;       // `instance` header awaiting its body (and, in
                            // discard mode, the frame awaiting resync)
    bool read_eof = false;

    // Write side: one buffer, partial-write resume via EPOLLOUT.
    std::string wbuf;
    std::size_t woff = 0;

    // Pipelining: executed frames carry a session-local ticket; completions
    // arriving out of order wait in `held` until their turn.
    std::uint64_t next_ticket = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, std::string> held;
    std::size_t inflight = 0;  // dispatched, completion not yet seen

    bool authed = false;
    bool parked = false;   // reads disabled by backpressure
    bool closing = false;  // no more frames; drain, flush, then close
    bool dead = false;     // peer unreachable: drop writes, await workers
    std::uint32_t armed = 0;  // epoll event mask currently registered
    bool in_epoll = false;
    Clock::time_point last_frame;  // last COMPLETE frame (idle-timeout clock)

    ~Session() {
      if (fd >= 0) ::close(fd);
    }
  };

  struct Completion {
    std::uint64_t sid = 0;
    std::uint64_t ticket = 0;
    std::string line;
  };

  EventLoop& self;
  Dispatcher& dispatcher;
  Listener* listener;
  const Dispatcher::Policy policy;
  const Dispatcher::LoopMetrics metrics;
  const bool tcp;  // sessions are TCP connections (TCP_NODELAY on accept)
  int epfd = -1;
  int wakefd = -1;
  int reserve_fd = -1;  // closed to make room for a shedding accept on EMFILE
  std::uint64_t next_sid = kFirstSession;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::deque<std::uint64_t> parked_q;
  std::size_t parked_count = 0;
  double pipeline_peak = 0;

  // Completions from other threads arrive over cq + the eventfd; the loop
  // thread's own (a router answering from a backend link) skip both.
  std::thread::id loop_thread;
  std::mutex cq_mu;
  std::vector<Completion> cq;
  std::vector<Completion> local_cq;
  std::size_t outstanding = 0;  // executed frames whose completion is unseen

  bool accepting = true;
  bool listener_armed = false;
  bool listener_failed = false;
  bool shutting_down = false;
  Clock::time_point accept_backoff_until{};
  Clock::time_point shutdown_deadline{};
  Clock::time_point last_idle_scan{};
  Clock::time_point last_shed_log{};

  static void set(telemetry::Gauge* gauge, double value) {
    if (gauge != nullptr) gauge->set(value);
  }
  static void inc(telemetry::Counter* counter) {
    if (counter != nullptr) counter->inc();
  }

  Impl(EventLoop& loop, Dispatcher& d, Listener* ls)
      : self(loop),
        dispatcher(d),
        listener(ls),
        policy(d.policy()),
        metrics(d.loop_metrics()),
        tcp(ls != nullptr && ls->endpoint().rfind("tcp:", 0) == 0) {
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (epfd < 0 || wakefd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev);
    if (listener == nullptr) return;
    // The accept loop drains until EAGAIN, which needs a nonblocking
    // listener.
    const int flags = ::fcntl(listener->fd(), F_GETFL, 0);
    if (flags >= 0) ::fcntl(listener->fd(), F_SETFL, flags | O_NONBLOCK);
    arm_listener();
  }

  ~Impl() {
    sessions.clear();
    if (reserve_fd >= 0) ::close(reserve_fd);
    if (wakefd >= 0) ::close(wakefd);
    if (epfd >= 0) ::close(epfd);
  }

  void arm_listener() {
    if (listener_armed || listener == nullptr || listener->fd() < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, listener->fd(), &ev) == 0) {
      listener_armed = true;
    }
  }

  void disarm_listener() {
    if (!listener_armed) return;
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, listener->fd(), nullptr);
    listener_armed = false;
  }

  std::size_t pipeline_cap() const {
    return policy.pipeline_depth != 0 ? policy.pipeline_depth : kDefaultPipelineDepth;
  }

  // ----------------------------------------------------------------- parking

  bool should_park(const Session& s) const {
    if (s.closing || s.dead) return false;
    if (s.inflight >= pipeline_cap()) return true;
    if (s.wbuf.size() - s.woff > kWriteHighWater) return true;
    return dispatcher.saturated();
  }

  void park(Session& s) {
    if (s.parked) return;
    s.parked = true;
    parked_q.push_back(s.sid);
    set(metrics.parked_sessions, static_cast<double>(++parked_count));
    update_interest(s);
  }

  void unpark(Session& s) {
    s.parked = false;
    set(metrics.parked_sessions, static_cast<double>(--parked_count));
    update_interest(s);
    process_input(s);
    update_interest(s);
    maybe_finish(s);
  }

  // FIFO unpark pass: one bounded sweep so a session that immediately
  // re-parks (global bound still tight) cannot spin the loop.
  void try_unpark() {
    std::size_t rounds = parked_q.size();
    while (rounds-- > 0 && !parked_q.empty()) {
      const std::uint64_t sid = parked_q.front();
      parked_q.pop_front();
      auto it = sessions.find(sid);
      if (it == sessions.end() || !it->second->parked) continue;  // stale
      Session& s = *it->second;
      if (should_park(s)) {
        parked_q.push_back(sid);
        continue;
      }
      unpark(s);
    }
  }

  // ------------------------------------------------------------- epoll state

  void update_interest(Session& s) {
    if (s.dead || !s.in_epoll) return;
    std::uint32_t want = 0;
    if (!s.closing && !s.parked && !s.read_eof) want |= EPOLLIN;
    if (s.woff < s.wbuf.size()) want |= EPOLLOUT;
    if (want == s.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = s.sid;
    if (::epoll_ctl(epfd, EPOLL_CTL_MOD, s.fd, &ev) == 0) s.armed = want;
  }

  void mark_dead(Session& s) {
    if (s.dead) return;
    s.dead = true;
    s.closing = true;
    s.wbuf.clear();
    s.woff = 0;
    if (s.in_epoll) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, s.fd, nullptr);
      s.in_epoll = false;
    }
  }

  // Destroys the session once nothing references it anymore: all dispatched
  // work completed (executors never touch sessions, but their responses must
  // land or be dropped deliberately) and the write buffer is flushed (or the
  // peer is gone). Call only in tail position — `s` is gone afterwards.
  void maybe_finish(Session& s) {
    if (!s.closing && !s.dead) return;
    if (s.inflight > 0 || !s.held.empty()) return;
    if (!s.dead && s.woff < s.wbuf.size()) return;
    if (s.in_epoll) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, s.fd, nullptr);
      s.in_epoll = false;
    }
    if (s.parked) set(metrics.parked_sessions, static_cast<double>(--parked_count));
    if (metrics.sessions_active != nullptr) metrics.sessions_active->add(-1);
    sessions.erase(s.sid);  // s is dangling past this line
    set(metrics.open_sessions, static_cast<double>(sessions.size()));
  }

  // ------------------------------------------------------------------ accept

  void add_session(int fd) {
    auto session = std::make_unique<Session>();
    Session& s = *session;
    s.sid = next_sid++;
    s.fd = fd;
    s.authed = policy.auth_token.empty();
    s.last_frame = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = s.sid;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return;  // session dtor closes the fd
    }
    s.in_epoll = true;
    s.armed = EPOLLIN;
    inc(metrics.sessions_total);
    if (metrics.sessions_active != nullptr) metrics.sessions_active->add(1);
    sessions.emplace(s.sid, std::move(session));
    set(metrics.open_sessions, static_cast<double>(sessions.size()));
  }

  void shed_and_backoff(int err) {
    // Descriptor exhaustion: free the reserve fd, accept the waiting
    // connection into the freed slot, and close it — an immediate "no" the
    // peer can react to beats rotting in the backlog — then back off so the
    // loop spends its time on the sessions it already holds.
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
      const int shed =
          ::accept4(listener->fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (shed >= 0) ::close(shed);
      reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
    const auto now = Clock::now();
    if (now - last_shed_log >= std::chrono::seconds(1)) {
      last_shed_log = now;
      std::cerr << "serve: accept on " << listener->endpoint() << ": "
                << std::strerror(err)
                << " — shedding new connections and backing off (raise "
                   "RLIMIT_NOFILE to serve more concurrent sessions)\n";
    }
    disarm_listener();
    accept_backoff_until = now + std::chrono::milliseconds(100);
  }

  void accept_ready() {
    if (!accepting) return;
    for (int burst = 0; burst < 256; ++burst) {
      const int fd =
          ::accept4(listener->fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        if (tcp) set_tcp_nodelay(fd);
        add_session(fd);
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        shed_and_backoff(errno);
        return;
      }
      std::cerr << "serve: accept on " << listener->endpoint()
                << " failed: " << std::strerror(errno) << "\n";
      listener_failed = true;
      disarm_listener();
      return;
    }
  }

  // ---------------------------------------------------------------- writing

  void try_flush(Session& s) {
    if (s.dead) return;
    while (s.woff < s.wbuf.size()) {
      const ssize_t n =
          ::write(s.fd, s.wbuf.data() + s.woff, s.wbuf.size() - s.woff);
      if (n > 0) {
        s.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      mark_dead(s);  // EPIPE/ECONNRESET: responses are undeliverable
      return;
    }
    if (s.woff == s.wbuf.size()) {
      s.wbuf.clear();
      s.woff = 0;
    }
    update_interest(s);
  }

  void enqueue_write(Session& s, const std::string& line) {
    if (s.dead) return;
    s.wbuf += line;
    try_flush(s);
  }

  // ------------------------------------------------------------- dispatching

  void execute(Session& s, Dispatcher::Request request) {
    const std::uint64_t ticket = s.next_ticket++;
    ++s.inflight;
    if (static_cast<double>(s.inflight) > pipeline_peak) {
      pipeline_peak = static_cast<double>(s.inflight);
      set(metrics.pipeline_peak, pipeline_peak);
    }
    ++outstanding;
    dispatcher.execute(std::move(request), Reply{&self, s.sid, ticket});
  }

  // One complete frame: account it, run the auth/fault/quota gates, then
  // answer inline or execute. Admission is parking in the caller.
  void dispatch_frame(Session& s, Frame frame) {
    s.last_frame = Clock::now();
    if (frame.kind == Frame::Kind::kQuit) {
      s.closing = true;
      return;
    }
    if (frame.kind == Frame::Kind::kShutdown) {
      dispatcher.request_shutdown();
      s.closing = true;
      return;
    }

    Dispatcher::Request request;
    if (!dispatcher.admit(frame, &request.seq)) return;
    request.req = std::move(frame.req);
    request.bad = std::move(frame.bad);
    request.stats = request.bad.empty() && frame.kind == Frame::Kind::kStats;
    request.metrics = request.bad.empty() && frame.kind == Frame::Kind::kMetrics;
    if (request.req.id.empty()) request.req.id = "#" + std::to_string(request.seq);

    // The auth gate. A valid token flips the session to authed silently (the
    // next frame's response is the ack); a bad token or any pre-auth frame is
    // answered inline, ahead of pending solves, and the session closes, so an
    // unauthenticated peer gets exactly one line out of us.
    if (request.bad.empty() && frame.kind == Frame::Kind::kAuth) {
      if (s.authed || token_equal(frame.auth_token, policy.auth_token)) {
        s.authed = true;
        return;
      }
      inc(metrics.rejects_auth);
      request.bad = "auth failed: bad token";
      enqueue_write(s, dispatcher.refuse(request));
      s.closing = true;
      return;
    }
    if (!s.authed) {
      inc(metrics.rejects_auth);
      request.bad = "auth required: present `auth TOKEN` as the first frame";
      request.stats = request.metrics = false;
      enqueue_write(s, dispatcher.refuse(request));
      s.closing = true;
      return;
    }

    if (request.bad.empty() && !request.stats && !request.metrics &&
        dispatcher.drop_connection()) {
      mark_dead(s);  // drop-after: close with the response unsent
      return;
    }

    if ((request.stats || request.metrics) && request.bad.empty()) {
      enqueue_write(s, dispatcher.probe(request, s.inflight));
      return;
    }

    if (request.bad.empty() && policy.session_quota > 0 &&
        s.inflight >= policy.session_quota) {
      inc(metrics.rejects_quota);
      request.bad = "over-quota: session already has " +
                    std::to_string(policy.session_quota) + " requests in flight";
      enqueue_write(s, dispatcher.refuse(request));
      return;
    }

    execute(s, std::move(request));
  }

  // ----------------------------------------------------------------- reading

  void process_input(Session& s) {
    while (!s.closing && !s.dead) {
      if (s.parked || should_park(s)) {
        park(s);
        break;
      }
      if (s.mode == Session::Mode::kBody) {
        const auto status = s.parser.feed(s.rbuf, &s.rpos, s.read_eof);
        if (status == InstanceParser::Status::kNeedMore) break;
        auto parsed = std::make_shared<ParsedInstance>(s.parser.take());
        const bool ok = parsed->ok();
        if (s.body_frame.bad.empty()) s.body_frame.req.parsed = std::move(parsed);
        if (ok) {
          s.mode = Session::Mode::kLine;
          Frame frame = std::move(s.body_frame);
          s.body_frame = Frame{};
          dispatch_frame(s, std::move(frame));
        } else {
          // A malformed body discards input up to the next blank line
          // (bodies contain none) before the frame is answered, so the rest
          // of the broken body is not misread as frames.
          s.mode = Session::Mode::kDiscard;
        }
      } else if (s.mode == Session::Mode::kDiscard) {
        bool resynced = false;
        while (true) {
          const auto nl = s.rbuf.find('\n', s.rpos);
          if (nl == std::string::npos) {
            if (!s.read_eof) break;
            s.rpos = s.rbuf.size();  // EOF ends the discard like getline would
            resynced = true;
            break;
          }
          const std::string line = s.rbuf.substr(s.rpos, nl - s.rpos);
          s.rpos = nl + 1;
          if (trimmed(line).empty()) {
            resynced = true;
            break;
          }
        }
        if (!resynced) break;
        s.mode = Session::Mode::kLine;
        Frame frame = std::move(s.body_frame);
        s.body_frame = Frame{};
        dispatch_frame(s, std::move(frame));
      } else {
        const auto nl = s.rbuf.find('\n', s.rpos);
        std::string line;
        if (nl == std::string::npos) {
          if (!s.read_eof || s.rpos >= s.rbuf.size()) break;
          line = s.rbuf.substr(s.rpos);  // final unterminated line
          s.rpos = s.rbuf.size();
        } else {
          line = s.rbuf.substr(s.rpos, nl - s.rpos);
          s.rpos = nl + 1;
        }
        const std::string text = trimmed(line);
        if (text.empty() || text[0] == '#') continue;
        bool needs_body = false;
        Frame frame = classify_frame(text, &needs_body);
        if (needs_body) {
          s.mode = Session::Mode::kBody;
          s.body_frame = std::move(frame);
          continue;
        }
        dispatch_frame(s, std::move(frame));
      }
    }
    // Reclaim consumed bytes, mid-body too: the parser never reads bytes
    // before rpos again.
    if (s.rpos > 0) {
      s.rbuf.erase(0, s.rpos);
      s.rpos = 0;
    }
    if (s.read_eof && !s.closing && !s.parked &&
        s.mode == Session::Mode::kLine && s.rpos >= s.rbuf.size()) {
      s.closing = true;  // every complete frame handled; drain and close
    }
  }

  void read_ready(Session& s) {
    if (s.closing || s.dead) return;
    char buf[1 << 16];
    // Bounded burst: a firehose client yields the loop back after ~1 MiB;
    // level-triggered epoll re-delivers the rest on the next wakeup.
    for (int burst = 0; burst < 16 && !s.read_eof; ++burst) {
      const ssize_t n = ::read(s.fd, buf, sizeof(buf));
      if (n > 0) {
        s.rbuf.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        s.read_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      mark_dead(s);
      maybe_finish(s);
      return;
    }
    process_input(s);
    update_interest(s);
    maybe_finish(s);
  }

  // ------------------------------------------------------------- completions

  void complete(std::uint64_t sid, std::uint64_t ticket, std::string line) {
    if (std::this_thread::get_id() == loop_thread) {
      local_cq.push_back(Completion{sid, ticket, std::move(line)});
      return;
    }
    {
      std::lock_guard<std::mutex> lock(cq_mu);
      cq.push_back(Completion{sid, ticket, std::move(line)});
    }
    std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakefd, &one, sizeof(one));
  }

  void drain_wake() {
    std::uint64_t drained = 0;
    while (::read(wakefd, &drained, sizeof(drained)) > 0) {
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    batch.swap(local_cq);
    {
      std::lock_guard<std::mutex> lock(cq_mu);
      if (batch.empty()) {
        batch.swap(cq);
      } else {
        std::move(cq.begin(), cq.end(), std::back_inserter(batch));
        cq.clear();
      }
    }
    if (batch.empty()) return;
    for (auto& c : batch) {
      --outstanding;
      auto it = sessions.find(c.sid);
      if (it == sessions.end()) continue;  // session torn down mid-solve
      Session& s = *it->second;
      --s.inflight;
      s.held.emplace(c.ticket, std::move(c.line));
      // Flush in ticket order: pipelined responses leave in request order
      // no matter which executor finished first.
      while (!s.held.empty() && s.held.begin()->first == s.next_flush) {
        enqueue_write(s, s.held.begin()->second);
        s.held.erase(s.held.begin());
        ++s.next_flush;
      }
      maybe_finish(s);
    }
    try_unpark();
  }

  // ------------------------------------------------------------------- ticks

  void idle_reap(Clock::time_point now) {
    if (policy.idle_timeout_ms <= 0) return;
    const auto window = std::chrono::milliseconds(policy.idle_timeout_ms);
    std::vector<std::uint64_t> doomed;
    for (const auto& [sid, session] : sessions) {
      const Session& s = *session;
      if (s.closing || s.dead || s.inflight > 0) continue;
      if (s.woff < s.wbuf.size()) continue;
      if (now - s.last_frame >= window) doomed.push_back(sid);
    }
    for (const std::uint64_t sid : doomed) {
      auto it = sessions.find(sid);
      if (it == sessions.end()) continue;
      inc(metrics.rejects_idle);
      mark_dead(*it->second);  // slowloris guard: close without a response
      maybe_finish(*it->second);
    }
  }

  void begin_shutdown() {
    shutting_down = true;
    accepting = false;
    disarm_listener();
    // Stop reading everywhere (unprocessed input is discarded), drain
    // in-flight work, flush responses, close.
    std::vector<std::uint64_t> sids;
    sids.reserve(sessions.size());
    for (const auto& [sid, _] : sessions) sids.push_back(sid);
    for (const std::uint64_t sid : sids) {
      auto it = sessions.find(sid);
      if (it == sessions.end()) continue;
      Session& s = *it->second;
      s.closing = true;
      s.rpos = s.rbuf.size();
      s.mode = Session::Mode::kLine;
      update_interest(s);
      maybe_finish(s);
    }
    shutdown_deadline = Clock::now() + kShutdownFlushGrace;
  }

  int compute_timeout(Clock::time_point now) {
    int timeout = std::min(shutting_down ? 50 : 200, dispatcher.tick(now));
    if (!local_cq.empty()) return 0;  // the dispatcher answered during tick
    if (policy.idle_timeout_ms > 0) {
      timeout = std::min(timeout, std::max(10, policy.idle_timeout_ms / 4));
    }
    if (!listener_armed && accepting && !shutting_down && listener != nullptr) {
      const long long wait =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              accept_backoff_until - now)
              .count();
      if (wait < timeout) timeout = static_cast<int>(std::max<long long>(1, wait));
    }
    return std::max(0, timeout);
  }

  bool run() {
    if (epfd < 0 || wakefd < 0) return false;
    if (listener != nullptr && listener->fd() < 0) return false;
    ::signal(SIGTERM, drain_handler);
    g_drain.store(false);
    loop_thread = std::this_thread::get_id();
    dispatcher.attach(self);
    bool failed = false;
    last_idle_scan = Clock::now();
    epoll_event events[128];
    while (true) {
      if (!shutting_down &&
          (dispatcher.shutdown_requested() || g_drain.load() || listener_failed ||
           (listener == nullptr && sessions.empty()))) {
        begin_shutdown();
      }
      if (shutting_down && sessions.empty() && outstanding == 0) break;

      auto now = Clock::now();
      if (!listener_armed && accepting && !listener_failed &&
          now >= accept_backoff_until) {
        arm_listener();
      }
      const int n = ::epoll_wait(epfd, events, 128, compute_timeout(now));
      inc(metrics.wakeups);
      if (n < 0) {
        if (errno == EINTR) continue;  // SIGTERM lands here; checked above
        failed = true;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          accept_ready();
          continue;
        }
        if (tag == kWakeTag) {
          drain_wake();
          continue;
        }
        if ((tag & kDispatcherBit) != 0) {
          dispatcher.on_ready(tag & ~kDispatcherBit, events[i].events);
          continue;
        }
        auto it = sessions.find(tag);
        if (it == sessions.end()) continue;  // destroyed earlier this batch
        Session& s = *it->second;
        const std::uint32_t ev = events[i].events;
        if (ev & EPOLLERR) {
          mark_dead(s);
          maybe_finish(s);
          continue;
        }
        if ((ev & EPOLLHUP) && s.parked) {
          // Peer fully gone while this session is parked: reading is off, so
          // the level-triggered HUP would otherwise spin the loop.
          mark_dead(s);
          maybe_finish(s);
          continue;
        }
        if (ev & EPOLLOUT) try_flush(s);
        if (sessions.find(tag) == sessions.end()) continue;
        if (ev & (EPOLLIN | EPOLLHUP)) read_ready(s);
      }
      drain_completions();

      now = Clock::now();
      if (now - last_idle_scan >= std::chrono::milliseconds(50)) {
        last_idle_scan = now;
        idle_reap(now);
      }
      if (shutting_down && now >= shutdown_deadline) {
        // Grace expired: drop responses a non-reading peer never collected.
        std::vector<std::uint64_t> sids;
        for (const auto& [sid, _] : sessions) sids.push_back(sid);
        for (const std::uint64_t sid : sids) {
          auto it = sessions.find(sid);
          if (it == sessions.end()) continue;
          mark_dead(*it->second);
          maybe_finish(*it->second);
        }
        shutdown_deadline = now + kShutdownFlushGrace;
      }
    }
    // Executors capture the loop (completion queue, wakefd): never return
    // while any are still running, even on the failure path.
    dispatcher.quiesce();
    {
      std::lock_guard<std::mutex> lock(cq_mu);
      cq.clear();
    }
    local_cq.clear();
    outstanding = 0;
    return !failed && !listener_failed;
  }
};

void Reply::send(std::string line) const { loop->complete(session, ticket, std::move(line)); }

EventLoop::EventLoop(Dispatcher& dispatcher, Listener* listener)
    : impl_(std::make_unique<Impl>(*this, dispatcher, listener)) {}

EventLoop::~EventLoop() = default;

bool EventLoop::run() { return impl_->run(); }

bool EventLoop::run_stdio(int in_fd, int out_fd, std::string* error) {
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0, pair) != 0) {
    if (error != nullptr) *error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  impl_->add_session(pair[0]);  // owned by the session from here on
  std::thread pump([&] {
    pump_stdio(in_fd, out_fd, pair[1]);
    ::close(pair[1]);
  });
  const bool ok = impl_->run();
  impl_->sessions.clear();  // a failed loop leaves the session: close it for the pump
  pump.join();
  if (!ok && error != nullptr) *error = "event loop failed";
  return ok;
}

bool EventLoop::watch(int fd, std::uint64_t tag, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag | Impl::kDispatcherBit;
  if (::epoll_ctl(impl_->epfd, EPOLL_CTL_MOD, fd, &ev) == 0) return true;
  return errno == ENOENT && ::epoll_ctl(impl_->epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EventLoop::unwatch(int fd) { ::epoll_ctl(impl_->epfd, EPOLL_CTL_DEL, fd, nullptr); }

void EventLoop::complete(std::uint64_t session, std::uint64_t ticket, std::string line) {
  impl_->complete(session, ticket, std::move(line));
}

}  // namespace bisched::engine
