#include "engine/serve.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "engine/fault.hpp"
#include "engine/serve/event_loop.hpp"
#include "io/jsonl.hpp"
#include "sched/simd_dispatch.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace bisched::engine {

namespace {

// How often the serve loop pushes the warm state's journal appends to the
// OS: a crash costs at most this much recent warmth.
constexpr std::chrono::seconds kStoreFlushInterval(5);

// Splits "solve PATH [ID]" / "instance [ID]" style frames on whitespace.
std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

// The auto-assigned id form `#<digits>`; client-supplied ids must not use it.
bool is_reserved_id(const std::string& id) {
  if (id.size() < 2 || id[0] != '#') return false;
  return std::all_of(id.begin() + 1, id.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

// One cache's fields of the stats frame, each named `<name>_<field>`.
void write_cache_stats(std::ostream& out, const char* name, const CacheStats& s) {
  const auto field = [&](const char* suffix) -> std::ostream& {
    return out << ", \"" << name << suffix << "\": ";
  };
  field("_entries") << s.entries;
  field("_disk_entries") << s.disk_entries;
  field("_hits_memory") << s.hits;
  field("_hits_disk") << s.disk_hits;
  field("_misses") << s.misses;
  field("_evictions") << s.evictions;
  const std::uint64_t lookups = s.hits + s.disk_hits + s.misses;
  field("_hit_rate") << fmt_double_exact(
      lookups == 0 ? 0
                   : static_cast<double>(s.hits + s.disk_hits) / static_cast<double>(lookups));
}

}  // namespace

Frame classify_frame(const std::string& frame, bool* needs_body) {
  Frame out;
  *needs_body = false;
  if (frame == "quit") {
    out.kind = Frame::Kind::kQuit;
    return out;
  }
  if (frame == "shutdown") {
    out.kind = Frame::Kind::kShutdown;
    return out;
  }

  if (frame[0] == '{') {
    std::string error;
    std::string salvaged_id;
    if (auto decoded = decode_request_json(frame, &error, &salvaged_id)) {
      out.req = std::move(*decoded);
    } else {
      out.bad = "bad request: " + error;
      // Answer under the client's own id when the broken frame still
      // yielded one — a client correlating strictly by its ids would
      // otherwise never match the error to its request. (A salvaged id in
      // the reserved form stays unused; the auto id applies.)
      if (!is_reserved_id(salvaged_id)) out.req.id = std::move(salvaged_id);
    }
  } else {
    const auto words = split_words(frame);
    if (words[0] == "solve") {
      if (words.size() == 2 || words.size() == 3) {
        out.req.path = words[1];
        if (words.size() == 3) out.req.id = words[2];
      } else {
        out.bad = "bad request: solve takes PATH [ID] (paths with spaces "
                  "need the JSON form)";
      }
    } else if (words[0] == "instance") {
      // The native text follows the header: the caller owns consuming the
      // body (the event loop scans it incrementally from its read buffer).
      // A header with a malformed id list still gets *needs_body — the body
      // must be consumed either way, or its lines would be misread as frames.
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: instance takes at most one id";
      *needs_body = true;
    } else if (words[0] == "stats") {
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: stats takes at most one id";
      out.kind = Frame::Kind::kStats;
    } else if (words[0] == "metrics") {
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: metrics takes at most one id";
      out.kind = Frame::Kind::kMetrics;
    } else if (words[0] == "auth") {
      if (words.size() == 2) {
        out.auth_token = words[1];
      } else {
        out.bad = "bad request: auth takes exactly one token";
      }
      out.kind = Frame::Kind::kAuth;
    } else {
      out.bad = "bad request: unrecognized frame '" + words[0] + "'";
    }
  }

  // Client-supplied ids must stay out of the server's `#<seq>` namespace —
  // a colliding correlation key is worse than an error response.
  if (out.bad.empty() && is_reserved_id(out.req.id)) {
    out.bad = "bad request: id '" + out.req.id +
              "' uses the reserved #<digits> form (server-assigned ids)";
    out.req.id.clear();
  }
  return out;
}

Server::Server(const SolverRegistry& registry, const ServeOptions& options,
               WarmState* warm)
    : registry_(registry), options_(options), warm_(warm) {
  // A peer that disconnects mid-response must surface as a write error on
  // that one session, never as SIGPIPE killing the process — for sockets,
  // stdio and in-process embedders alike.
  ::signal(SIGPIPE, SIG_IGN);
  if (warm_ == nullptr) {
    owned_warm_ = std::make_unique<WarmState>();
    warm_ = owned_warm_.get();
  }
  const unsigned threads =
      options_.threads != 0 ? options_.threads : default_thread_count();
  max_inflight_ = options_.max_inflight != 0 ? options_.max_inflight : 4 * threads;
  pool_ = std::make_unique<ThreadPool>(threads);

  // The serve series join the engine series (bisched_solves_total etc.) in
  // the warm state's registry, so one scrape covers both.
  telemetry::Registry& reg = warm_->telemetry().registry();
  const char* frames_help = "Admitted frames by type";
  frames_solve_ = &reg.counter("bisched_serve_frames_total", frames_help,
                               "type=\"solve\"");
  frames_stats_ = &reg.counter("bisched_serve_frames_total", frames_help,
                               "type=\"stats\"");
  frames_metrics_ = &reg.counter("bisched_serve_frames_total", frames_help,
                                 "type=\"metrics\"");
  frames_auth_ = &reg.counter("bisched_serve_frames_total", frames_help,
                              "type=\"auth\"");
  frames_malformed_ = &reg.counter("bisched_serve_frames_total", frames_help,
                                   "type=\"malformed\"");
  const char* responses_help = "Responses written by status";
  responses_ok_ = &reg.counter("bisched_serve_responses_total", responses_help,
                               "status=\"ok\"");
  responses_error_ = &reg.counter("bisched_serve_responses_total", responses_help,
                                  "status=\"error\"");
  const char* rejects_help = "Frames refused before execution (also counted as error responses)";
  rejects_auth_ = &reg.counter("bisched_serve_rejects_total", rejects_help,
                               "reason=\"auth\"");
  rejects_quota_ = &reg.counter("bisched_serve_rejects_total", rejects_help,
                                "reason=\"over-quota\"");
  rejects_idle_ = &reg.counter("bisched_serve_rejects_total", rejects_help,
                               "reason=\"idle-timeout\"");
  sessions_total_ = &reg.counter("bisched_serve_sessions_total",
                                 "Client sessions ever started");
  sessions_active_ = &reg.gauge("bisched_serve_sessions_active",
                                "Client sessions currently connected");
  inflight_gauge_ = &reg.gauge("bisched_serve_inflight_requests",
                               "Requests admitted but not yet answered");
  open_sessions_ = &reg.gauge("bisched_serve_open_sessions",
                              "Sessions registered on the async event loop");
  parked_sessions_ = &reg.gauge("bisched_serve_parked_sessions",
                                "Sessions with reads parked by backpressure");
  pipeline_peak_ = &reg.gauge("bisched_serve_pipeline_depth_peak",
                              "Deepest per-session solve pipeline observed");
  loop_wakeups_ = &reg.counter("bisched_serve_loop_wakeups_total",
                               "Event loop wakeups (epoll_wait returns)");
  uptime_gauge_ = &reg.gauge("bisched_uptime_seconds",
                             "Seconds since this server was constructed");
}

Server::~Server() { pool_->wait_idle(); }

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::string Server::stats_frame_json(const std::string& id, std::int64_t seq,
                                     std::size_t session_inflight) const {
  const std::uint64_t solve_frames = frames_solve_->value();
  const std::uint64_t stats_frames = frames_stats_->value();
  const std::uint64_t metrics_frames = frames_metrics_->value();
  const std::uint64_t auth_frames = frames_auth_->value();
  const std::uint64_t malformed = frames_malformed_->value();
  std::size_t inflight = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight = inflight_;
  }
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"stats\""
      << ", \"requests\": "
      << solve_frames + stats_frames + metrics_frames + auth_frames + malformed
      << ", \"solve_frames\": " << solve_frames
      << ", \"stats_frames\": " << stats_frames
      << ", \"metrics_frames\": " << metrics_frames
      << ", \"auth_frames\": " << auth_frames
      << ", \"malformed\": " << malformed << ", \"ok\": " << responses_ok_->value()
      << ", \"errors\": " << responses_error_->value()
      << ", \"sessions\": " << sessions_total_->value()
      << ", \"sessions_active\": "
      << static_cast<std::uint64_t>(sessions_active_->value())
      << ", \"inflight\": " << inflight
      << ", \"session_inflight\": " << session_inflight
      << ", \"uptime_s\": " << fmt_double_exact(uptime_seconds())
      << ", \"store\": " << json_quote(warm_->store_dir())
      << ", \"simd\": " << json_quote(to_string(simd_level()));
  write_cache_stats(out, "profile", warm_->profiles().stats());
  write_cache_stats(out, "result", warm_->results().stats());
  out << "}\n";
  return out.str();
}

std::string Server::metrics_text() const {
  warm_->mirror_metrics();
  uptime_gauge_->set(uptime_seconds());
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_gauge_->set(static_cast<double>(inflight_));
  }
  return warm_->telemetry().registry().expose();
}

std::string Server::metrics_frame_json(const std::string& id, std::int64_t seq) const {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"metrics\""
      << ", \"content_type\": \"text/plain; version=0.0.4\""
      << ", \"body\": " << json_quote(metrics_text()) << "}\n";
  return out.str();
}

void Server::maybe_slow_log(const SolveResponse& response, double elapsed_ms,
                            const std::shared_ptr<const telemetry::Trace>& trace) {
  if (options_.slow_ms < 0 || elapsed_ms < options_.slow_ms) return;
  // One structured line per slow request: correlation first (trace id, id,
  // seq), then outcome and tiers hit, then the span breakdown — everything
  // needed to decide "cache or solver?" without re-running the request.
  std::ostringstream line;
  line << "serve: slow-request trace=" << (trace != nullptr ? trace->id() : "-")
       << " id=" << response.id << " seq=" << response.seq
       << " status=" << (response.ok ? "ok" : "error")
       << " elapsed_ms=" << fmt_double_exact(elapsed_ms)
       << " cache=" << response_cache_label(response)
       << " solve_cache=" << response_result_label(response)
       << " solver=" << (response.solver.empty() ? "-" : response.solver)
       << " spans="
       << (trace != nullptr ? trace->compact(/*zero_ms=*/false) : "-") << "\n";
  std::ostream& out = options_.slow_log != nullptr ? *options_.slow_log : std::cerr;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  out << line.str() << std::flush;
}

Server::RenderedResponse Server::execute_and_render(const Request& pending) {
  RenderedResponse rendered;
  SolveResponse& response = rendered.response;
  if (!pending.bad.empty()) {
    response.error = pending.bad;
    response.id = pending.req.id;
  } else {
    fault::maybe_stall();
    response = run_request(registry_, *warm_, pending.req, options_.alg,
                           options_.solve);
    rendered.executed = true;
  }
  response.seq = pending.seq;
  // Keep the real timing and trace for the slow log before --stable strips
  // them from the wire form.
  rendered.elapsed_ms = response.elapsed_ms;
  rendered.trace = response.trace;
  if (options_.stable_output) response.strip_timing();
  // Count BEFORE the caller writes: a client that has read a response must
  // find it reflected in the very next stats frame (the lockstep test pins
  // this).
  (response.ok ? responses_ok_ : responses_error_)->inc();
  std::ostringstream line;
  write_response_json(line, response);
  rendered.line = line.str();
  return rendered;
}

Dispatcher::Policy Server::policy() const {
  Policy policy;
  policy.auth_token = options_.auth_token;
  policy.session_quota = options_.session_max_inflight;
  policy.pipeline_depth = options_.pipeline_depth;
  policy.idle_timeout_ms = options_.idle_timeout_ms;
  return policy;
}

Dispatcher::LoopMetrics Server::loop_metrics() const {
  LoopMetrics m;
  m.sessions_total = sessions_total_;
  m.sessions_active = sessions_active_;
  m.open_sessions = open_sessions_;
  m.parked_sessions = parked_sessions_;
  m.pipeline_peak = pipeline_peak_;
  m.wakeups = loop_wakeups_;
  m.rejects_auth = rejects_auth_;
  m.rejects_quota = rejects_quota_;
  m.rejects_idle = rejects_idle_;
  return m;
}

// Frame-type accounting at classification time, in admission order (the
// frame counts itself: a stats frame admitted as seq N reports N+1
// requests, matching the pre-registry requests_ counter it replaces).
// Malformed means rejected at the protocol layer — a well-formed frame
// whose solve fails still counts as a solve frame (its failure shows up in
// the response status counters instead).
bool Server::admit(const Frame& frame, std::int64_t* seq) {
  *seq = seq_.fetch_add(1);
  if (!frame.bad.empty()) {
    frames_malformed_->inc();
  } else if (frame.kind == Frame::Kind::kStats) {
    frames_stats_->inc();
  } else if (frame.kind == Frame::Kind::kMetrics) {
    frames_metrics_->inc();
  } else if (frame.kind == Frame::Kind::kAuth) {
    frames_auth_->inc();
  } else {
    frames_solve_->inc();
  }
  return true;
}

std::string Server::probe(const Request& request, std::size_t session_inflight) {
  std::string line = request.stats
                         ? stats_frame_json(request.req.id, request.seq, session_inflight)
                         : metrics_frame_json(request.req.id, request.seq);
  responses_ok_->inc();
  return line;
}

std::string Server::refuse(const Request& request) {
  return execute_and_render(request).line;
}

bool Server::drop_connection() {
  return fault::on_solve_frame() == fault::Action::kDropConnection;
}

bool Server::saturated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_ >= max_inflight_;
}

// The worker renders, slow-logs and hands the line back to the loop.
void Server::execute(Request request, Reply reply) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
    inflight_gauge_->set(static_cast<double>(inflight_));
  }
  pool_->submit([this, reply, request = std::move(request)] {
    RenderedResponse rendered = execute_and_render(request);
    if (rendered.executed) {
      maybe_slow_log(rendered.response, rendered.elapsed_ms, rendered.trace);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      inflight_gauge_->set(static_cast<double>(inflight_));
    }
    reply.send(std::move(rendered.line));
  });
}

// Periodic warmth durability: push buffered journal appends to the OS (and
// heartbeat the store's write lease), so a crash loses at most
// kStoreFlushInterval of traffic. No-op for memory-only warm state.
int Server::tick(Clock::time_point now) {
  if (now - last_flush_ >= kStoreFlushInterval) {
    last_flush_ = now;
    warm_->flush();
  }
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              last_flush_ + kStoreFlushInterval - now)
                              .count());
}

void Server::quiesce() { pool_->wait_idle(); }

ServeStats Server::stats() const {
  ServeStats stats;
  stats.solve_frames = frames_solve_->value();
  stats.stats_frames = frames_stats_->value();
  stats.metrics_frames = frames_metrics_->value();
  stats.auth_frames = frames_auth_->value();
  stats.malformed = frames_malformed_->value();
  stats.requests = stats.solve_frames + stats.stats_frames + stats.metrics_frames +
                   stats.auth_frames + stats.malformed;
  stats.ok = responses_ok_->value();
  stats.errors = responses_error_->value();
  stats.sessions = sessions_total_->value();
  stats.cache = warm_->profiles().stats();
  stats.results = warm_->results().stats();
  return stats;
}

ServeStats serve(const SolverRegistry& registry, int in_fd, int out_fd,
                 const ServeOptions& options, std::string* error, WarmState* warm) {
  Server server(registry, options, warm);
  EventLoop loop(server, nullptr);
  loop.run_stdio(in_fd, out_fd, error);
  server.warm().flush();
  return server.stats();
}

ServeStats serve_listener(const SolverRegistry& registry, Listener& listener,
                          const ServeOptions& options, std::string* error,
                          WarmState* warm) {
  Server server(registry, options, warm);
  EventLoop loop(server, &listener);
  if (!loop.run() && !server.shutdown_requested() && error != nullptr) {
    *error = "listener on '" + listener.endpoint() + "' failed";
  }
  server.warm().flush();
  return server.stats();
}

ServeStats serve_unix(const SolverRegistry& registry, const std::string& socket_path,
                      const ServeOptions& options, std::string* error,
                      WarmState* warm) {
  auto listener = UnixListener::open(socket_path, error);
  if (listener == nullptr) return {};
  return serve_listener(registry, *listener, options, error, warm);
}

}  // namespace bisched::engine
