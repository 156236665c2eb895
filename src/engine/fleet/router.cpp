#include "engine/fleet/router.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/serve.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "sched/instance_hash.hpp"
#include "util/table.hpp"

namespace bisched::engine::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// Maintenance cadence: supervisor reaping + gauge refresh. Health probes run
// on their own (longer) options_.health_interval_ms inside this tick.
constexpr std::chrono::milliseconds kMaintenanceTick(50);
// Backoff between full candidate passes when nobody answered — long enough
// not to spin while a lone backend respawns, short next to any deadline.
constexpr std::chrono::milliseconds kPassBackoff(50);
// Health probes are cheap and local; they get a short fixed budget rather
// than the request-path attempt timeout.
constexpr std::chrono::milliseconds kProbeBudget(1000);
// Persistent solve links per backend. Each is one backend session; two keep
// one slow solve from holding up every answer queued behind it.
constexpr std::size_t kLinksPerBackend = 2;

// FNV-1a over the raw source string — the routing key of last resort for
// requests whose instance cannot be parsed (the backend owns producing the
// canonical error; the router only needs *a* deterministic placement).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool key_from_parsed(const ParsedInstance& parsed, std::uint64_t* key) {
  if (!parsed.ok()) return false;
  *key = parsed.uniform.has_value() ? instance_hash(*parsed.uniform)
                                    : instance_hash(*parsed.unrelated);
  return true;
}

bool key_from_text(const std::string& text, std::uint64_t* key) {
  std::istringstream in(text);
  const ParsedInstance parsed = parse_instance(in);
  return key_from_parsed(parsed, key);
}

// Splices the router's admission seq over the backend's in a finished
// response line. The literal `"seq": ` cannot occur inside a JSON string
// value (json_quote escapes the embedded quote), so the first match is the
// top-level member.
void splice_seq(std::string* line, std::int64_t seq) {
  static const std::string kPattern = "\"seq\": ";
  const auto pos = line->find(kPattern);
  if (pos == std::string::npos) return;
  const auto start = pos + kPattern.size();
  auto end = start;
  while (end < line->size() &&
         (line->at(end) == '-' || std::isdigit(static_cast<unsigned char>(line->at(end))))) {
    ++end;
  }
  line->replace(start, end - start, std::to_string(seq));
}

// When the client supplied no id, the BACKEND auto-assigned one from its own
// `#<seq>` namespace — which would collide across backends. Re-home it to
// the router's: the router seq is the fleet-wide admission order.
void splice_auto_id(std::string* line, std::int64_t seq) {
  static const std::string kPattern = "\"id\": \"#";
  const auto pos = line->find(kPattern);
  if (pos == std::string::npos) return;
  const auto start = pos + kPattern.size();
  auto end = start;
  while (end < line->size() &&
         std::isdigit(static_cast<unsigned char>(line->at(end)))) {
    ++end;
  }
  if (end >= line->size() || line->at(end) != '"') return;
  line->replace(pos, end - pos, "\"id\": \"#" + std::to_string(seq));
}

// A locally built error response — the only lines a client ever receives
// that no backend produced (unroutable requests, degraded mode). `id` is the
// client's ("" = none given).
std::string local_error(const std::string& id, const std::string& path,
                        std::int64_t seq, std::string error) {
  SolveResponse response;
  response.id = id.empty() ? "#" + std::to_string(seq) : id;
  response.seq = seq;
  response.file = path;
  response.ok = false;
  response.error = std::move(error);
  return encode_response_json(response);
}

// The client's own id for an admitted frame, "" when it gave none. The loop
// fills `#<seq>` into a frame without an id; that form is the loop's alone
// (classify_frame refuses client ids in it). The router answers and
// forwards the client's id: a backend would refuse the reserved form.
std::string client_id(const Dispatcher::Request& request) {
  return request.req.id == "#" + std::to_string(request.seq) ? "" : request.req.id;
}

long long ms_until(Clock::time_point at, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(at - now).count();
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace

// One persistent connection to a backend serve. Solve links carry routed
// frames, matched to responses by the FIFO `tickets`; a probe link carries
// one `stats` probe at a time.
struct Router::Link {
  std::uint64_t tag = 0;  // epoll tag; never reused
  std::size_t backend = 0;
  std::uint64_t generation = 0;  // the backend process it was opened to
  bool probe = false;
  int fd = -1;
  bool connected = false;  // false: the nonblocking connect is in flight
  bool dirty = false;      // queued on dirty_ for the next flush
  std::uint32_t armed = 0;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::deque<std::uint64_t> tickets;  // routed request ids, in send order
  bool probing = false;               // probe link: a probe is outstanding
  Clock::time_point probe_deadline{};
};

// One routed solve, from admission to its answer.
struct Router::Routed {
  Reply reply;
  std::string id;  // the client's id; "" = none given
  std::string path;
  std::int64_t seq = 0;
  std::string frame_line;  // what every attempt sends
  std::size_t home = 0;
  std::vector<std::size_t> order;  // ring candidates, home first
  Clock::time_point deadline;
  int attempts = 0;
  // Candidate cursor: pass phase (0 = healthy backends, 1 = unhealthy ones)
  // and position in `order`.
  int phase = 0;
  std::size_t next = 0;
  // The attempt in flight (link != 0), or the backoff between passes.
  std::uint64_t link = 0;
  std::size_t backend = 0;
  Clock::time_point sent_at{};
  Clock::time_point attempt_deadline{};
  bool backing_off = false;
  Clock::time_point backoff_until{};
};

Router::Router(const RouterOptions& options, std::string* error)
    : options_(options) {
  // A backend or client dying mid-write must cost one attempt or one
  // session, not the process.
  ::signal(SIGPIPE, SIG_IGN);
  if (options_.fleet == 0) options_.fleet = 1;

  SupervisorOptions sup = options_.supervisor;
  sup.cli_path = !options_.cli_path.empty() ? options_.cli_path : self_exe_path();
  sup.serve_args = options_.serve_args;
  sup.store_dir = options_.store_dir;
  sup.backends = options_.fleet;
  if (sup.cli_path.empty()) {
    if (error != nullptr) *error = "route: cannot resolve the serving binary path";
    return;
  }

  const char* requests_help = "Solve frames answered by status";
  requests_ok_ = &registry_.counter("bisched_fleet_requests_total", requests_help,
                                    "status=\"ok\"");
  requests_error_ = &registry_.counter("bisched_fleet_requests_total", requests_help,
                                       "status=\"error\"");
  attempts_ = &registry_.counter("bisched_fleet_attempts_total",
                                 "Backend attempts (first tries + retries)");
  retries_ = &registry_.counter("bisched_fleet_retries_total",
                                "Attempts after the first for one request");
  failovers_ = &registry_.counter(
      "bisched_fleet_failovers_total",
      "Requests answered by a backend other than their hash-ring home");
  degraded_ = &registry_.counter(
      "bisched_fleet_degraded_total",
      "Requests that exhausted every candidate within their deadline");
  respawns_ = &registry_.counter("bisched_fleet_respawns_total",
                                 "Backend processes respawned after a death");
  breaker_ = &registry_.counter(
      "bisched_fleet_breaker_open_total",
      "Backends abandoned by the restart-storm circuit breaker");
  const char* backends_help = "Backends by observed state";
  backends_healthy_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                       "state=\"healthy\"");
  backends_unhealthy_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                         "state=\"unhealthy\"");
  backends_down_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                    "state=\"down\"");
  for (std::size_t i = 0; i < options_.fleet; ++i) {
    backend_latency_.push_back(&registry_.histogram(
        "bisched_fleet_backend_latency_ms",
        "Successful attempt round-trip per backend",
        telemetry::Histogram::default_latency_bounds_ms(),
        "backend=\"" + std::to_string(i) + "\""));
  }
  for (std::size_t i = 0; i < options_.fleet; ++i) {
    link_opens_.push_back(&registry_.counter(
        "bisched_fleet_link_opens_total",
        "Backend links opened, first opens and reopens (solve + probe)",
        "backend=\"" + std::to_string(i) + "\""));
  }

  supervisor_ = std::make_unique<Supervisor>(std::move(sup));
  health_ = std::make_unique<HealthTracker>(options_.fleet, options_.unhealthy_after);
  ring_ = std::make_unique<HashRing>(options_.fleet);
  slots_.assign(options_.fleet, std::vector<std::uint64_t>(kLinksPerBackend, 0));
  probes_.assign(options_.fleet, 0);
  seen_generation_.assign(options_.fleet, 0);

  if (!supervisor_->start(error)) {
    supervisor_->stop();
    return;
  }
  for (std::size_t i = 0; i < options_.fleet; ++i) {
    seen_generation_[i] = supervisor_->generation(i);
  }
  max_inflight_ = options_.max_inflight != 0 ? options_.max_inflight : 8 * options_.fleet;
  refresh_backend_gauges();
  ok_ = true;
}

Router::~Router() {
  if (supervisor_ != nullptr) supervisor_->stop();
}

bool Router::run(Listener& listener) {
  EventLoop loop(*this, &listener);
  return loop.run();
}

bool Router::run_stdio(int in_fd, int out_fd, std::string* error) {
  EventLoop loop(*this, nullptr);
  return loop.run_stdio(in_fd, out_fd, error);
}

// The links live on the loop's epoll: close them before the loop goes.
void Router::quiesce() {
  while (!links_.empty()) close_link(*links_.begin()->second);
  loop_ = nullptr;
}

// ------------------------------------------------------------ dispatching ---

bool Router::admit(const Frame& frame, std::int64_t* seq) {
  // The router itself holds no token (it binds loopback/stdio; auth guards
  // remote SERVE binds) — a well-formed `auth` frame is ignored exactly as a
  // serve session without a configured token ignores one, and takes no seq.
  if (frame.bad.empty() && frame.kind == Frame::Kind::kAuth) return false;
  *seq = seq_++;
  return true;
}

// Introspection answers from the ROUTER — fleet shape and retry/failover
// counters, not any single backend's solve stats.
std::string Router::probe(const Request& request, std::size_t /*session_inflight*/) {
  return request.stats ? stats_frame_json(client_id(request), request.seq)
                       : metrics_frame_json(client_id(request), request.seq);
}

std::string Router::refuse(const Request& request) {
  requests_error_->inc();
  return local_error(request.req.id, request.req.path, request.seq, request.bad);
}

void Router::execute(Request request, Reply reply) {
  ++inflight_;
  const std::uint64_t rid = next_rid_++;
  Routed& rt = *(routed_[rid] = std::make_unique<Routed>());
  rt.reply = reply;
  rt.seq = request.seq;
  rt.path = request.req.path;
  rt.id = client_id(request);
  SolveRequest& wire = request.req;
  wire.id = rt.id;
  if (!request.bad.empty()) {
    requests_error_->inc();
    finish(rid, local_error(rt.id, rt.path, rt.seq, request.bad));
    return;
  }

  // Derive the routing key and the wire form together. A `parsed` source has
  // no wire form, so it is re-serialized as inline text; file paths are
  // forwarded as paths (the backend reads the file and owns the canonical
  // open/parse error texts), with the router parsing only to key placement.
  std::uint64_t key = 0;
  if (wire.parsed != nullptr) {
    const std::shared_ptr<const ParsedInstance> parsed = std::move(wire.parsed);
    if (!parsed->ok()) {
      requests_error_->inc();
      finish(rid, local_error(rt.id, rt.path, rt.seq, "parse error: " + parsed->error));
      return;
    }
    key_from_parsed(*parsed, &key);
    std::ostringstream text;
    if (parsed->uniform.has_value()) {
      write_instance(text, *parsed->uniform);
    } else {
      write_instance(text, *parsed->unrelated);
    }
    wire.inline_text = text.str();
    wire.has_inline_text = true;
  } else if (wire.has_inline_text) {
    if (!key_from_text(wire.inline_text, &key)) key = fnv1a(wire.inline_text);
  } else if (!wire.path.empty()) {
    bool keyed = false;
    std::ifstream file(wire.path);
    if (file) {
      const ParsedInstance parsed = parse_instance(file);
      keyed = key_from_parsed(parsed, &key);
    }
    if (!keyed) key = fnv1a(wire.path);
  } else {
    requests_error_->inc();
    finish(rid, local_error(rt.id, rt.path, rt.seq, "no instance source in request"));
    return;
  }
  rt.frame_line = encode_request_json(wire) + "\n";
  rt.home = ring_->owner(key);
  rt.order = ring_->candidates(key);
  const auto now = Clock::now();
  rt.deadline = now + std::chrono::milliseconds(options_.deadline_ms);
  advance(rid, now);
}

// Candidate passes under one deadline budget: ring order from the key's
// home, healthy backends before unhealthy ones, non-running slots skipped.
// A full pass with no answer backs off briefly (a lone backend may be
// respawning) and tries again until the budget is spent.
void Router::advance(std::uint64_t rid, Clock::time_point now) {
  Routed& rt = *routed_.at(rid);
  for (; rt.phase < 2; ++rt.phase, rt.next = 0) {
    while (rt.next < rt.order.size()) {
      const long long remaining = ms_until(rt.deadline, now);
      if (remaining <= 0) {
        rt.phase = 2;
        break;
      }
      const std::size_t backend = rt.order[rt.next++];
      if (supervisor_->state(backend) != BackendState::kRunning) continue;
      if (health_->healthy(backend) != (rt.phase == 0)) continue;
      if (rt.attempts > 0) retries_->inc();
      ++rt.attempts;
      attempts_->inc();
      Link* link = pick_link(backend);
      if (link == nullptr) {
        health_->record_failure(backend);
        continue;
      }
      long long budget = std::min<long long>(options_.attempt_timeout_ms, remaining);
      if (!link->connected) budget = std::min<long long>(budget, options_.connect_timeout_ms);
      rt.link = link->tag;
      rt.backend = backend;
      rt.sent_at = now;
      rt.attempt_deadline = now + std::chrono::milliseconds(std::max(1ll, budget));
      note_due(rt.attempt_deadline);
      link->tickets.push_back(rid);
      send(*link, rt.frame_line);
      return;
    }
  }

  if (ms_until(rt.deadline, now) > kPassBackoff.count()) {
    rt.backing_off = true;
    rt.backoff_until = now + kPassBackoff;
    note_due(rt.backoff_until);
    return;
  }
  degraded_->inc();
  requests_error_->inc();
  finish(rid, local_error(rt.id, rt.path, rt.seq,
                          "degraded: no backend answered within " +
                              std::to_string(options_.deadline_ms) + "ms (" +
                              std::to_string(rt.attempts) + " attempts across " +
                              std::to_string(rt.order.size()) + " backends)"));
}

void Router::answered(std::uint64_t rid, std::string line) {
  Routed& rt = *routed_.at(rid);
  health_->record_success(rt.backend);
  backend_latency_[rt.backend]->observe(
      std::chrono::duration<double, std::milli>(Clock::now() - rt.sent_at).count());
  if (rt.backend != rt.home) failovers_->inc();
  // The response correlates by the ROUTER's admission order: its seq always,
  // and its `#<seq>` id when the client supplied none (the backend's
  // auto-assigned id lives in a per-backend namespace that collides fleet-
  // wide). A client-supplied id passed through the backend verbatim.
  splice_seq(&line, rt.seq);
  if (rt.id.empty()) splice_auto_id(&line, rt.seq);
  const bool ok = line.find("\"status\": \"ok\"") != std::string::npos;
  (ok ? requests_ok_ : requests_error_)->inc();
  finish(rid, std::move(line));
}

void Router::finish(std::uint64_t rid, std::string line) {
  const auto it = routed_.find(rid);
  const Reply reply = it->second->reply;
  routed_.erase(it);
  --inflight_;
  reply.send(std::move(line));
}

// ----------------------------------------------------------------- links ---

Router::Link* Router::find_link(std::uint64_t tag) {
  if (tag == 0) return nullptr;
  const auto it = links_.find(tag);
  return it == links_.end() ? nullptr : it->second.get();
}

// An idle open link if there is one, else a fresh link in an empty slot,
// else the open link with the fewest tickets.
Router::Link* Router::pick_link(std::size_t backend) {
  Link* best = nullptr;
  std::uint64_t* empty = nullptr;
  for (std::uint64_t& tag : slots_[backend]) {
    Link* link = find_link(tag);
    if (link == nullptr) {
      if (empty == nullptr) empty = &tag;
      continue;
    }
    if (link->tickets.empty()) return link;
    if (best == nullptr || link->tickets.size() < best->tickets.size()) best = link;
  }
  if (empty == nullptr) return best;
  Link* link = open_link(backend, /*probe=*/false);
  if (link != nullptr) *empty = link->tag;
  return link;
}

Router::Link* Router::open_link(std::size_t backend, bool probe) {
  const int port = supervisor_->port(backend);
  if (port <= 0 || loop_ == nullptr) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  set_tcp_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return nullptr;
  }
  auto owned = std::make_unique<Link>();
  Link& link = *owned;
  link.tag = ++next_tag_;
  link.backend = backend;
  link.generation = supervisor_->generation(backend);
  link.probe = probe;
  link.fd = fd;
  link.connected = rc == 0;
  links_.emplace(link.tag, std::move(owned));
  link_opens_[backend]->inc();
  arm(link);
  return &link;
}

void Router::arm(Link& link) {
  const std::uint32_t want =
      EPOLLIN | (!link.connected || link.woff < link.wbuf.size() ? EPOLLOUT : 0u);
  if (want == link.armed) return;
  if (loop_->watch(link.fd, link.tag, want)) link.armed = want;
}

// Queues bytes; tick() writes them before the loop next waits, so frames
// admitted in one wakeup leave in one write per link.
void Router::send(Link& link, const std::string& bytes) {
  link.wbuf += bytes;
  if (!link.dirty) {
    link.dirty = true;
    dirty_.push_back(link.tag);
  }
}

bool Router::flush(Link& link) {
  if (!link.connected) return true;  // EPOLLOUT on connect resumes it
  while (link.woff < link.wbuf.size()) {
    const ssize_t n =
        ::write(link.fd, link.wbuf.data() + link.woff, link.wbuf.size() - link.woff);
    if (n > 0) {
      link.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_link(link, /*idle_ok=*/false);
    return false;
  }
  if (link.woff == link.wbuf.size()) {
    link.wbuf.clear();
    link.woff = 0;
  }
  arm(link);
  return true;
}

void Router::on_ready(std::uint64_t tag, std::uint32_t events) {
  Link* link = find_link(tag);
  if (link == nullptr) return;  // closed earlier in this wakeup
  if (!link->connected) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(link->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      fail_link(*link, /*idle_ok=*/false);  // refused: the backend is not listening
      return;
    }
    link->connected = true;
  }
  if ((events & EPOLLOUT) != 0 && !flush(*link)) return;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) read_link(*link);
}

void Router::read_link(Link& link) {
  char buf[1 << 16];
  bool eof = false;
  while (true) {
    const ssize_t n = ::read(link.fd, buf, sizeof(buf));
    if (n > 0) {
      link.rbuf.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fail_link(link, /*idle_ok=*/false);
    return;
  }
  // Each line answers the link's oldest ticket (serve answers one session's
  // solve frames in send order).
  std::size_t start = 0;
  std::size_t nl = 0;
  while ((nl = link.rbuf.find('\n', start)) != std::string::npos) {
    std::string line = link.rbuf.substr(start, nl - start + 1);
    start = nl + 1;
    const bool expected = link.probe ? link.probing : !link.tickets.empty();
    if (line[0] != '{' || !expected) {
      fail_link(link, /*idle_ok=*/false);  // out of step with its tickets
      return;
    }
    if (link.probe) {
      link.probing = false;
      health_->record_success(link.backend);
      continue;
    }
    const std::uint64_t rid = link.tickets.front();
    link.tickets.pop_front();
    answered(rid, std::move(line));
  }
  link.rbuf.erase(0, start);
  if (eof) fail_link(link, /*idle_ok=*/true);
}

void Router::fail_link(Link& link, bool idle_ok) {
  const std::size_t backend = link.backend;
  const bool current = link.generation == supervisor_->generation(backend);
  const bool idle = link.tickets.empty() && !link.probing;
  std::deque<std::uint64_t> tickets = std::move(link.tickets);
  close_link(link);
  // The backend closed an idle link: nothing was lost, the next request
  // reopens it.
  if (idle && idle_ok) return;
  // A link to an older generation reports on a process that is gone.
  if (current) health_->record_failure(backend);
  const auto now = Clock::now();
  for (const std::uint64_t rid : tickets) {
    const auto it = routed_.find(rid);
    if (it == routed_.end()) continue;
    it->second->link = 0;
    advance(rid, now);
  }
}

void Router::close_link(Link& link) {
  if (loop_ != nullptr) loop_->unwatch(link.fd);
  ::close(link.fd);
  for (std::uint64_t& tag : slots_[link.backend]) {
    if (tag == link.tag) tag = 0;
  }
  if (probes_[link.backend] == link.tag) probes_[link.backend] = 0;
  links_.erase(link.tag);  // `link` is dangling past this line
}

// ----------------------------------------------------------------- timers ---

int Router::tick(Clock::time_point now) {
  if (now >= next_maintenance_) {
    maintain(now);
    next_maintenance_ = now + kMaintenanceTick;
  }
  fire_timers(now);
  while (!dirty_.empty()) {
    const std::vector<std::uint64_t> tags = std::move(dirty_);
    dirty_.clear();
    for (const std::uint64_t tag : tags) {
      Link* link = find_link(tag);
      if (link == nullptr) continue;
      link->dirty = false;
      flush(*link);
    }
  }
  const Clock::time_point wake = std::min(next_maintenance_, next_due_);
  return static_cast<int>(std::clamp<long long>(ms_until(wake, now) + 1, 0, 1000));
}

void Router::note_due(Clock::time_point at) { next_due_ = std::min(next_due_, at); }

// Attempt timeouts fail the whole link (its later tickets wait behind the
// stalled one); expired pass backoffs start the next pass.
void Router::fire_timers(Clock::time_point now) {
  if (now < next_due_) return;
  next_due_ = Clock::time_point::max();
  std::vector<std::uint64_t> expired_links;
  std::vector<std::uint64_t> next_pass;
  for (const auto& [rid, rt] : routed_) {
    if (rt->link != 0) {
      if (rt->attempt_deadline <= now) {
        expired_links.push_back(rt->link);
      } else {
        note_due(rt->attempt_deadline);
      }
    } else if (rt->backing_off) {
      if (rt->backoff_until <= now) {
        next_pass.push_back(rid);
      } else {
        note_due(rt->backoff_until);
      }
    }
  }
  for (const std::uint64_t tag : expired_links) {
    if (Link* link = find_link(tag)) fail_link(*link, /*idle_ok=*/false);
  }
  for (const std::uint64_t rid : next_pass) {
    const auto it = routed_.find(rid);
    if (it == routed_.end() || !it->second->backing_off) continue;
    it->second->backing_off = false;
    it->second->phase = 0;
    it->second->next = 0;
    advance(rid, now);
  }
}

void Router::maintain(Clock::time_point now) {
  supervisor_->poll();

  // A respawned slot is a NEW process: drop the old one's health record so
  // the fresh backend starts optimistically healthy, and its links, so none
  // of them charges a failure to the new process.
  for (std::size_t i = 0; i < seen_generation_.size(); ++i) {
    const std::uint64_t generation = supervisor_->generation(i);
    if (generation == seen_generation_[i]) continue;
    seen_generation_[i] = generation;
    health_->reset(i);
    std::vector<std::uint64_t> tags = slots_[i];
    tags.push_back(probes_[i]);
    for (const std::uint64_t tag : tags) {
      if (Link* link = find_link(tag)) fail_link(*link, /*idle_ok=*/true);
    }
  }

  // Probe each running backend with a `stats` frame on its probe link:
  // liveness of the whole serve path (read, parse, inline answer), not just
  // the process. The tracker needs unhealthy_after consecutive misses before
  // demoting; a probe unanswered within its budget is one miss.
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    Link* link = find_link(probes_[i]);
    if (link != nullptr && link->probing && now >= link->probe_deadline) {
      fail_link(*link, /*idle_ok=*/false);
    }
  }
  if (now - last_probe_ >= std::chrono::milliseconds(std::max(1, options_.health_interval_ms))) {
    last_probe_ = now;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (supervisor_->state(i) != BackendState::kRunning) continue;
      Link* link = find_link(probes_[i]);
      if (link != nullptr && link->probing) continue;
      if (link == nullptr) {
        link = open_link(i, /*probe=*/true);
        if (link == nullptr) {
          health_->record_failure(i);
          continue;
        }
        probes_[i] = link->tag;
      }
      link->probing = true;
      link->probe_deadline = now + kProbeBudget;
      send(*link, "stats probe\n");
    }
  }

  refresh_backend_gauges();
  respawns_->mirror(supervisor_->respawns());
  breaker_->mirror(supervisor_->breaker_trips());
}

// --------------------------------------------------------- introspection ---

void Router::refresh_backend_gauges() const {
  std::size_t healthy = 0;
  std::size_t unhealthy = 0;
  std::size_t down = 0;
  for (std::size_t i = 0; i < supervisor_->size(); ++i) {
    if (supervisor_->state(i) != BackendState::kRunning) {
      ++down;
    } else if (health_->healthy(i)) {
      ++healthy;
    } else {
      ++unhealthy;
    }
  }
  backends_healthy_->set(static_cast<double>(healthy));
  backends_unhealthy_->set(static_cast<double>(unhealthy));
  backends_down_->set(static_cast<double>(down));
}

std::string Router::stats_frame_json(const std::string& id, std::int64_t seq) const {
  const RouterStats s = stats();
  const double uptime = std::chrono::duration<double>(Clock::now() - start_).count();
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"stats\""
      << ", \"role\": \"router\""
      << ", \"backends\": " << s.backends << ", \"healthy\": " << s.healthy
      << ", \"unhealthy\": " << s.unhealthy << ", \"down\": " << s.down
      << ", \"requests\": " << s.requests << ", \"ok\": " << s.ok
      << ", \"errors\": " << s.errors << ", \"retries\": " << s.retries
      << ", \"failovers\": " << s.failovers << ", \"degraded\": " << s.degraded
      << ", \"respawns\": " << s.respawns
      << ", \"breaker_trips\": " << s.breaker_trips
      << ", \"uptime_s\": " << fmt_double_exact(uptime) << "}\n";
  return out.str();
}

std::string Router::metrics_frame_json(const std::string& id, std::int64_t seq) const {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"metrics\""
      << ", \"content_type\": \"text/plain; version=0.0.4\""
      << ", \"body\": " << json_quote(metrics_text()) << "}\n";
  return out.str();
}

std::string Router::metrics_text() const {
  refresh_backend_gauges();
  respawns_->mirror(supervisor_->respawns());
  breaker_->mirror(supervisor_->breaker_trips());
  return registry_.expose();
}

RouterStats Router::stats() const {
  RouterStats s;
  s.ok = requests_ok_->value();
  s.errors = requests_error_->value();
  s.requests = s.ok + s.errors;
  s.retries = retries_->value();
  s.failovers = failovers_->value();
  s.degraded = degraded_->value();
  s.respawns = supervisor_->respawns();
  s.breaker_trips = supervisor_->breaker_trips();
  s.backends = supervisor_->size();
  for (std::size_t i = 0; i < supervisor_->size(); ++i) {
    if (supervisor_->state(i) != BackendState::kRunning) {
      ++s.down;
    } else if (health_->healthy(i)) {
      ++s.healthy;
    } else {
      ++s.unhealthy;
    }
  }
  return s;
}

// ------------------------------------------------------------ entry points ---

RouterStats route_stdio(const RouterOptions& options, int in_fd, int out_fd,
                        std::string* error) {
  Router router(options, error);
  if (!router.ok()) return {};
  router.run_stdio(in_fd, out_fd, error);
  return router.stats();
}

RouterStats route_listener(const RouterOptions& options, Listener& listener,
                           std::string* error) {
  Router router(options, error);
  if (!router.ok()) return {};
  if (!router.run(listener) && !router.shutdown_requested() && error != nullptr) {
    *error = "listener on '" + listener.endpoint() + "' failed";
  }
  return router.stats();
}

}  // namespace bisched::engine::fleet
