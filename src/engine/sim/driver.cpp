#include "engine/sim/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/api.hpp"
#include "engine/transport.hpp"
#include "io/jsonl.hpp"

namespace bisched::engine::sim {

namespace {

using Clock = std::chrono::steady_clock;

// The per-phase slice of the bisched_sim_* registry series. Registered
// up-front in phase order so exposition (and the report built from it) is
// stable run to run; workers only observe/inc.
struct PhaseSeries {
  telemetry::Histogram* latency = nullptr;
  telemetry::Histogram* send_delay = nullptr;
  telemetry::Counter* ok = nullptr;
  telemetry::Counter* error = nullptr;
  telemetry::Counter* sla_miss = nullptr;
  telemetry::Counter* retries = nullptr;
  telemetry::Counter* tier_memory = nullptr;
  telemetry::Counter* tier_disk = nullptr;
  telemetry::Counter* tier_miss = nullptr;
};

std::vector<PhaseSeries> register_series(telemetry::Registry& reg, const Trace& trace) {
  std::vector<PhaseSeries> out;
  out.reserve(trace.phases.size());
  for (const TracePhase& p : trace.phases) {
    const std::string phase = "phase=\"" + p.name + "\"";
    PhaseSeries s;
    s.latency = &reg.histogram("bisched_sim_latency_ms",
                               "Request latency from SCHEDULED send time (ms)",
                               telemetry::Histogram::default_latency_bounds_ms(), phase);
    s.send_delay = &reg.histogram("bisched_sim_send_delay_ms",
                                  "Actual minus scheduled send time (ms): backpressure",
                                  telemetry::Histogram::default_latency_bounds_ms(), phase);
    s.ok = &reg.counter("bisched_sim_requests_total", "Replayed requests by outcome",
                        phase + ",status=\"ok\"");
    s.error = &reg.counter("bisched_sim_requests_total", "Replayed requests by outcome",
                           phase + ",status=\"error\"");
    s.sla_miss = &reg.counter("bisched_sim_sla_miss_total",
                              "Requests whose latency exceeded --sla-ms", phase);
    s.retries = &reg.counter("bisched_sim_retries_total",
                             "Driver-side resend attempts beyond the first", phase);
    s.tier_memory = &reg.counter("bisched_sim_tier_total",
                                 "Requests by serving cache tier", phase + ",tier=\"memory\"");
    s.tier_disk = &reg.counter("bisched_sim_tier_total",
                               "Requests by serving cache tier", phase + ",tier=\"disk\"");
    s.tier_miss = &reg.counter("bisched_sim_tier_total",
                               "Requests by serving cache tier", phase + ",tier=\"miss\"");
    out.push_back(s);
  }
  return out;
}

void count_tier(const PhaseSeries& s, const RequestSample& sample) {
  // Tier mix prefers the result-cache label (the repeat-traffic signal);
  // a request that never reached the result cache falls back to the probe
  // tier. Errors with no provenance count nowhere.
  const std::string& label =
      !sample.result_cache.empty() ? sample.result_cache : sample.cache;
  if (label == "hit-memory") {
    s.tier_memory->inc();
  } else if (label == "hit-disk") {
    s.tier_disk->inc();
  } else if (label == "miss") {
    s.tier_miss->inc();
  }
}

// One live session: a connection to the serve/route endpoint, rebuilt on
// demand after a drop. Auth (when configured) is replayed on every
// reconnect — a fresh session starts unauthenticated.
class LiveSession {
 public:
  LiveSession(const SimEndpoint& endpoint, const DriverOptions& options)
      : endpoint_(endpoint), options_(options) {}

  bool ensure(std::string* error) {
    if (transport_ != nullptr) return true;
    const int fd =
        endpoint_.kind == SimEndpoint::Kind::kUnix
            ? unix_connect(endpoint_.path, error)
            : tcp_connect(endpoint_.host, endpoint_.port, error,
                          options_.connect_timeout_ms);
    if (fd < 0) return false;
    // The fleet's per-attempt deadline helper: a stalled server surfaces as
    // EOF after timeout_ms instead of hanging the session forever.
    set_io_timeout(fd, options_.timeout_ms, options_.timeout_ms);
    transport_ = std::make_unique<FdTransport>(fd);
    if (!endpoint_.auth_token.empty()) {
      // Accepted silently; a rejection arrives as the reply to the first
      // real frame and is handled like any other error response.
      transport_->out() << "auth " << endpoint_.auth_token << '\n';
      transport_->out().flush();
    }
    return true;
  }

  void drop() { transport_.reset(); }
  FdTransport* transport() { return transport_.get(); }

 private:
  const SimEndpoint& endpoint_;
  const DriverOptions& options_;
  std::unique_ptr<FdTransport> transport_;
};

// Sends one request over a live session, reconnecting and resending up to
// max_attempts. Returns attempts used; false = every attempt failed.
bool send_live(LiveSession& session, const std::string& frame_line,
               const DriverOptions& options, std::string* response_line,
               int* attempts) {
  for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
    *attempts = attempt;
    std::string error;
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!session.ensure(&error)) continue;
    std::ostream& out = session.transport()->out();
    out << frame_line << '\n';
    out.flush();
    if (!out) {
      session.drop();
      continue;
    }
    if (!std::getline(session.transport()->in(), *response_line)) {
      // EOF: dropped connection, crashed server, or the read deadline.
      session.drop();
      continue;
    }
    return true;
  }
  return false;
}

// After the replay: one extra connection scrapes the server's `stats` frame
// so the report can show what the SERVER saw (a router answers with its
// retry/failover/degraded counters). Best-effort — a dead server leaves the
// map empty, never fails the run.
std::map<std::string, std::string> scrape_server_stats(const SimEndpoint& endpoint,
                                                       const DriverOptions& options) {
  std::map<std::string, std::string> out;
  LiveSession session(endpoint, options);
  std::string error;
  if (!session.ensure(&error)) return out;
  session.transport()->out() << "stats\n";
  session.transport()->out().flush();
  std::string line;
  if (!std::getline(session.transport()->in(), line)) return out;
  const auto object = parse_flat_json_object(line, &error);
  if (object.has_value()) out = *object;
  return out;
}

struct WorkerContext {
  const Trace* trace = nullptr;
  const SimEndpoint* endpoint = nullptr;
  const DriverOptions* options = nullptr;
  const InProcessEngine* engine = nullptr;
  const std::vector<PhaseSeries>* series = nullptr;
  std::vector<RequestSample>* samples = nullptr;
  std::atomic<std::size_t>* cursor = nullptr;
  Clock::time_point t0;
};

std::int64_t us_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
      .count();
}

void execute_in_process(const WorkerContext& ctx, std::size_t index,
                        const TraceEntry& entry, RequestSample* sample) {
  SolveRequest req;
  req.id = entry.id;
  req.inline_text = entry.instance;
  req.has_inline_text = true;
  req.alg = entry.alg;
  req.has_eps = entry.has_eps;
  req.eps = entry.eps;
  SolveOptions defaults;
  defaults.eps = ctx.options->eps;
  SolveResponse response = run_request(*ctx.engine->registry, *ctx.engine->warm, req,
                                       ctx.options->default_alg, defaults);
  response.seq = static_cast<std::int64_t>(index);  // trace order: deterministic
  if (ctx.options->stable_outputs) response.strip_timing();
  sample->ok = response.ok;
  sample->cache = response_cache_label(response);
  sample->result_cache = response_result_label(response);
  sample->output = encode_response_json(response);
  if (!sample->output.empty() && sample->output.back() == '\n') {
    sample->output.pop_back();
  }
}

void execute_live(LiveSession& session, const WorkerContext& ctx,
                  const TraceEntry& entry, RequestSample* sample) {
  SolveRequest req;
  req.id = entry.id;
  req.inline_text = entry.instance;
  req.has_inline_text = true;
  req.alg = entry.alg;
  req.has_eps = entry.has_eps;
  req.eps = entry.eps;
  const std::string frame_line = encode_request_json(req);

  std::string response_line;
  int attempts = 1;
  if (!send_live(session, frame_line, *ctx.options, &response_line, &attempts)) {
    sample->attempts = attempts;
    sample->ok = false;
    sample->output = "";
    return;
  }
  sample->attempts = attempts;
  sample->output = response_line;
  std::string error;
  const auto object = parse_flat_json_object(response_line, &error);
  if (!object.has_value()) {
    sample->ok = false;
    return;
  }
  const auto get = [&](const char* key) -> std::string {
    const auto it = object->find(key);
    return it != object->end() ? it->second : "";
  };
  sample->ok = get("status") == "ok";
  sample->cache = get("cache");
  sample->result_cache = get("solve_cache");
}

void worker(const WorkerContext& ctx) {
  LiveSession session(*ctx.endpoint, *ctx.options);
  const bool live = ctx.endpoint->kind != SimEndpoint::Kind::kInProcess;
  const auto& entries = ctx.trace->entries;
  for (;;) {
    const std::size_t i = ctx.cursor->fetch_add(1, std::memory_order_relaxed);
    if (i >= entries.size()) break;
    const TraceEntry& entry = entries[i];
    RequestSample& sample = (*ctx.samples)[i];
    sample.sched_us = entry.t_us;
    sample.phase = entry.phase;

    // Open loop: wait for the scheduled time, never for the previous
    // response. A past-due schedule (backpressure) sends immediately and
    // the gap lands in send_delay.
    std::this_thread::sleep_until(ctx.t0 + std::chrono::microseconds(entry.t_us));
    sample.actual_us = us_since(ctx.t0);

    if (live) {
      execute_live(session, ctx, entry, &sample);
    } else {
      execute_in_process(ctx, i, entry, &sample);
    }

    sample.done_us = us_since(ctx.t0);
    sample.latency_ms = static_cast<double>(sample.done_us - sample.sched_us) / 1000.0;
    sample.send_delay_ms =
        static_cast<double>(sample.actual_us - sample.sched_us) / 1000.0;
    sample.sla_miss = sample.latency_ms > ctx.options->sla_ms;

    const PhaseSeries& s = (*ctx.series)[static_cast<std::size_t>(sample.phase)];
    s.latency->observe(sample.latency_ms);
    s.send_delay->observe(sample.send_delay_ms < 0 ? 0 : sample.send_delay_ms);
    (sample.ok ? s.ok : s.error)->inc();
    if (sample.sla_miss) s.sla_miss->inc();
    if (sample.attempts > 1) {
      s.retries->inc(static_cast<std::uint64_t>(sample.attempts - 1));
    }
    count_tier(s, sample);
  }
}

}  // namespace

DriverResult run_driver(const Trace& trace, const SimEndpoint& endpoint,
                        const DriverOptions& options,
                        telemetry::Registry& registry,
                        const InProcessEngine& engine) {
  DriverResult result;
  if (options.connections < 1 || options.connections > 256) {
    result.error = "sim: connections must be in [1, 256]";
    return result;
  }
  const bool live = endpoint.kind != SimEndpoint::Kind::kInProcess;
  if (!live && (engine.registry == nullptr || engine.warm == nullptr)) {
    result.error = "sim: in-process replay needs a registry and a warm state";
    return result;
  }
  if (options.max_attempts < 1 || options.max_attempts > 100) {
    result.error = "sim: max-attempts must be in [1, 100]";
    return result;
  }

  const std::vector<PhaseSeries> series = register_series(registry, trace);
  result.samples.resize(trace.entries.size());

  std::atomic<std::size_t> cursor{0};
  WorkerContext ctx;
  ctx.trace = &trace;
  ctx.endpoint = &endpoint;
  ctx.options = &options;
  ctx.engine = &engine;
  ctx.series = &series;
  ctx.samples = &result.samples;
  ctx.cursor = &cursor;
  ctx.t0 = Clock::now();

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(options.connections),
                            std::max<std::size_t>(trace.entries.size(), 1));
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&ctx] { worker(ctx); });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - ctx.t0).count();

  if (live) result.server_stats = scrape_server_stats(endpoint, options);
  result.ok = true;
  return result;
}

}  // namespace bisched::engine::sim
