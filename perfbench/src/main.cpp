// perfbench_runner: generates a workload from a seed, starts the real
// `bisched_cli serve` (or `route`) process, drives it closed-loop over a
// unix socket, checks every reply, and prints the metrics. `--trace 1`
// adds the traced run: client spans on the wire, the in-process layer
// ledger (ledger.hpp) and the router-hop comparison, reported as per-layer
// metrics. README.md has the metric definitions and the workloads' rationale.
//
//   perfbench_runner --cli PATH --workload NAME|all --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//   perfbench_runner --selftest
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace perfbench {
int run_selftest();
}  // namespace perfbench

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

// One benchmark process, two connections with window 1; the program gets two
// solver threads (the fleet: one per backend).
constexpr int kConnections = 2;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
constexpr double kReadyTimeoutS = 60;
// host_reference_ms() on the development host in a quiet stretch: the
// host speed every time figure is scaled to (see host_scale).
constexpr double kReferenceMs = 1.2;
// Router-hop comparison slice (trace runs), in requests.
constexpr std::uint64_t kHopSlice = 2000;
constexpr std::uint64_t kHopSliceCold = 48;

struct Options {
  std::string cli;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // run scratch under work_dir/run, span dumps under work_dir/out
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// ------------------------------------------------------------ the program ---

std::vector<std::string> program_args(bool routed, bool store) {
  std::vector<std::string> args;
  if (routed) {
    args = {"route", "--fleet=2", "--threads=1", "--listen=unix:s.sock"};
  } else {
    args = {"serve", "--threads=2", "--listen=unix:s.sock"};
  }
  if (store) args.push_back("--store=store");
  return args;
}

struct Started {
  std::unique_ptr<Server> server;
  double setup_s = 0;
};

// Spawn, wait until ready, then the warm-up pass: the set-up time.
Started start_program(const Options& o, const Workload& w, Checker& checker, bool routed,
                      bool store, const std::string& dir, std::string* error) {
  fs::create_directories(dir);
  Started s;
  const std::int64_t t0 = now_ns();
  s.server = Server::spawn(o.cli, program_args(routed, store), dir, "s.sock", error);
  if (!s.server || !s.server->wait_ready(routed ? 2 : 0, kReadyTimeoutS, error)) {
    s.server.reset();
    return s;
  }
  const auto& warm = w.warmup();
  const Phase phase = run_closed_loop(s.server->socket(), kConnections, 0,
                                      [&](std::uint64_t slot, std::string* frame) {
                                        if (slot >= warm.size()) return false;
                                        *frame = json_frame("w" + std::to_string(slot),
                                                            warm[slot].text);
                                        return true;
                                      });
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (const Sample& sample : phase.samples) {
    const std::size_t i = sample.slot;
    checker.check(sample, "w" + std::to_string(i), w.warmup_key(i),
                  [&] { return warm[i]; }, false);
  }
  return s;
}

// The timed stream from request index `base` on.
Phase run_stream(const Server& server, const Workload& w, std::uint64_t base, double seconds,
                 std::uint64_t limit, bool traced = false) {
  return run_closed_loop(server.socket(), kConnections, seconds,
                         [&](std::uint64_t slot, std::string* frame) {
                           if (slot >= limit) return false;
                           *frame = w.frame(base + slot);
                           return true;
                         },
                         traced);
}

void check_stream(const Phase& phase, const Workload& w, std::uint64_t base, Checker& checker,
                  bool expect_hits) {
  for (const Sample& s : phase.samples) {
    const std::uint64_t k = base + s.slot;
    checker.check(s, "k" + std::to_string(k), w.key(k), [&] { return w.instance(k); },
                  expect_hits);
  }
}

std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.replied_ns != 0) out.push_back(s.latency_ms());
  }
  return out;
}

std::map<std::uint64_t, double> latency_by_index(const Phase& phase, std::uint64_t base) {
  std::map<std::uint64_t, double> out;
  for (const Sample& s : phase.samples) {
    if (s.replied_ns != 0) out[base + s.slot] = s.latency_ms();
  }
  return out;
}

std::size_t ok_replies(const Phase& phase) {
  std::size_t n = 0;
  for (const Sample& s : phase.samples) {
    if (s.replied_ns != 0 && json_string(s.reply, "status").value_or("") == "ok") ++n;
  }
  return n;
}

std::optional<double> scrape(Server& server, const std::string& series) {
  const std::string reply = server.request("metrics perfbench\n");
  const auto body = json_string(reply, "body");
  if (!body.has_value()) return std::nullopt;
  return prometheus_value(*body, series);
}

double median_difference(const std::map<std::uint64_t, double>& a,
                         const std::map<std::uint64_t, double>& b) {
  std::vector<double> diffs;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it != b.end()) diffs.push_back(v - it->second);
  }
  return median(diffs);
}

// The timed phase's figures. With `per_window`, each 0.5 s interval gives
// its own throughput, p50 and tail, and the run reports the median over the
// intervals, so a burst of host interference moves a few intervals, not the
// figure. Otherwise (too few replies per interval for a tail) all intervals'
// replies are pooled.
struct Windows {
  double req_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  std::vector<std::string> notes;
};

Windows windowed(const Phase& phase, double seconds, double percentile, bool per_window) {
  const std::size_t count = static_cast<std::size_t>(seconds / kIntervalS);
  std::vector<std::vector<double>> lat(count);
  std::vector<double> ok(count, 0);
  for (const Sample& s : phase.samples) {
    if (s.replied_ns == 0) continue;
    const double at = static_cast<double>(s.replied_ns - phase.start_ns) / 1e9;
    const std::size_t i = static_cast<std::size_t>(at / kIntervalS);
    if (i >= count) continue;  // after the last whole interval
    lat[i].push_back(s.latency_ms());
    if (json_string(s.reply, "status").value_or("") == "ok") ok[i] += 1;
  }

  std::vector<double> rate, p50, tail, pooled;
  double pooled_ok = 0;
  std::size_t samples = 0;
  std::size_t fewest_beyond = SIZE_MAX;
  for (std::size_t i = 0; i < count; ++i) {
    samples += lat[i].size();
    if (per_window) {
      const Tail t = tail_at(lat[i], percentile);
      rate.push_back(ok[i] / kIntervalS);
      p50.push_back(median(lat[i]));
      tail.push_back(t.value);
      fewest_beyond = std::min(fewest_beyond, t.beyond);
    } else {
      pooled.insert(pooled.end(), lat[i].begin(), lat[i].end());
      pooled_ok += ok[i];
    }
  }
  Windows w;
  if (per_window) {
    w.req_per_s = median(rate);
    w.p50_ms = median(p50);
    w.tail_ms = median(tail);
  } else {
    const Tail t = tail_at(pooled, percentile);
    w.req_per_s = pooled_ok / (static_cast<double>(count) * kIntervalS);
    w.p50_ms = median(pooled);
    w.tail_ms = t.value;
    fewest_beyond = t.beyond;
  }
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is p%g %s: %zu samples in %zu %.1f s intervals, "
                "fewest beyond p%g %zu%s",
                percentile, per_window ? "per interval, median over intervals" : "of the pooled intervals",
                samples, count, kIntervalS, percentile, fewest_beyond,
                fewest_beyond < kMinBeyond ? " (WARNING: below 10)" : "");
  w.notes.push_back(buf);
  const std::vector<double>& steal = phase.steal;
  std::snprintf(buf, sizeof buf, "host steal: median %.1f%%, max %.1f%%", 100 * median(steal),
                steal.empty() ? 0.0 : 100 * *std::max_element(steal.begin(), steal.end()));
  w.notes.push_back(buf);
  return w;
}

// The share of the CPU time this machine's vCPUs wanted in `phase` that the
// hypervisor withheld.
double withheld(const Phase& phase) {
  const double wanted = static_cast<double>(phase.steal_ticks + phase.busy_ticks);
  return wanted > 0 ? static_cast<double>(phase.steal_ticks) / wanted : 0.0;
}

// The factor that scales a time measured in `phase` to the quiet reference
// host. The shared host this benchmark was built on runs the same code up
// to a quarter slower or faster from one minute to the next, with no steal
// to show for it, and in busy stretches it also withholds a tenth or more
// of the CPU time. The first factor, kReferenceMs ÷ the phase's median
// host_reference_ms(), undoes the slower CPU: the reference slows down and
// speeds up with it, and the program cannot change it (it is thread CPU
// time of the benchmark's own code). The second, 1 − withheld(), undoes the
// withheld time.
double host_scale(const Phase& phase) {
  const double ref = median(phase.reference_ms);
  return (ref > 0 ? kReferenceMs / ref : 1.0) * (1.0 - withheld(phase));
}

// --------------------------------------------------------------- the run ---

struct Outcome {
  bool ok = true;        // every check passed
  bool errored = false;  // the run itself broke: no result
  std::string error;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

// Per-layer figures from the trace run (see README.md for each definition).
void layer_metrics(const SpanLog& log, const std::map<std::uint64_t, double>& direct_wire,
                   std::vector<Metric>* out, std::vector<std::string>* notes) {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, std::vector<double>> ms_calib;
  std::vector<double> parse_bytes;
  std::map<std::uint64_t, double> api_request;
  std::map<std::uint64_t, double> parts;
  std::map<std::uint64_t, double> cache_ms;
  std::size_t bb_calls = 0;
  std::size_t bb_fell = 0;
  double bb_wasted_ms = 0;
  double core_ms = 0;
  const auto& spans = log.spans();
  for (const Span& s : spans) {
    const bool calib = s.detail == "calib";
    (calib ? ms_calib : ms)[s.name].push_back(s.ms());
    if (s.name == "io.parse") parse_bytes.push_back(static_cast<double>(s.bytes));
    if (s.name == "api.request") api_request[s.rid] = s.ms();
    const bool under_request =
        s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == "request";
    if (under_request && (s.name == "io.parse" || s.name.rfind("engine.cache", 0) == 0 ||
                          s.name == "engine.solve")) {
      parts[s.rid] += s.ms();
    }
    if (under_request && s.name.rfind("engine.cache", 0) == 0) cache_ms[s.rid] += s.ms();
    if (!calib && s.name.rfind("core.", 0) == 0) {
      core_ms += s.ms();
      if (s.name == "core.exact_bb") {
        ++bb_calls;
        if (s.failed) {
          ++bb_fell;
          bb_wasted_ms += s.ms();
        }
      }
    }
  }
  const auto p50 = [&](const std::string& name) {
    auto it = ms.find(name);
    if (it != ms.end() && !it->second.empty()) return median(it->second);
    notes->push_back(name + " timed on calibration instances (the workload never reaches it)");
    return median(ms_calib[name]);
  };
  std::vector<double> cache_list;
  for (const auto& [k, v] : cache_ms) cache_list.push_back(v);
  std::vector<double> api_self_list;
  std::vector<double> serve_self_list;
  for (const auto& [k, request_ms] : api_request) {
    api_self_list.push_back(request_ms - parts[k]);
    auto wire = direct_wire.find(k);
    if (wire != direct_wire.end()) serve_self_list.push_back(wire->second - request_ms);
  }
  const Tail solve_tail = highest_supported_tail(ms["engine.solve"]);
  notes->push_back("engine.solve_tail_ms is p" + std::to_string(static_cast<int>(solve_tail.percentile)) +
                   " of " + std::to_string(solve_tail.samples) + " solves (" +
                   std::to_string(solve_tail.beyond) + " beyond)");
  notes->push_back("serve.self_ms pairs " + std::to_string(serve_self_list.size()) +
                   " requests; api.self_ms " + std::to_string(api_self_list.size()));

  out->push_back({"io.parse_ms", p50("io.parse"), "ms"});
  out->push_back({"io.parse_bytes", median(parse_bytes), "bytes"});
  out->push_back({"sched.hash_ms", p50("sched.hash"), "ms"});
  out->push_back({"engine.probe_ms", p50("engine.probe"), "ms"});
  out->push_back({"engine.cache_ms", median(cache_list), "ms"});
  out->push_back({"engine.solve_ms", p50("engine.solve"), "ms"});
  out->push_back({"engine.solve_tail_ms", solve_tail.value, "ms"});
  out->push_back({"core.r2_exact_ms", p50("core.r2_exact"), "ms"});
  out->push_back({"core.alg1_ms", p50("core.alg1"), "ms"});
  out->push_back({"core.exact_bb_ms", p50("core.exact_bb"), "ms"});
  out->push_back({"core.exact_bb_truncated_ratio",
                  bb_calls == 0 ? 0.0 : static_cast<double>(bb_fell) / static_cast<double>(bb_calls),
                  "ratio"});
  out->push_back({"core.exact_bb_wasted_share", core_ms > 0 ? bb_wasted_ms / core_ms : 0.0, "ratio"});
  out->push_back({"api.request_ms", p50("api.request"), "ms"});
  out->push_back({"api.render_ms", p50("api.render"), "ms"});
  out->push_back({"api.self_ms", median(api_self_list), "ms"});
  out->push_back({"serve.self_ms", median(serve_self_list), "ms"});
}

Outcome run_workload(const Options& o, const std::string& name) {
  Outcome out;
  const auto w = Workload::make(name, o.seed);
  if (!w) {
    out.errored = true;
    out.error = "unknown workload '" + name + "'";
    return out;
  }
  const std::string dir = o.work_dir + "/run/" + name + "-" + std::to_string(o.seed) + "-" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  Checker checker;
  // One CPU at a time (Workload::one_cpu), in turn each CPU the benchmark
  // may use: set-up i on the i-th, the timed phase's intervals round robin.
  // A vCPU slowed by its neighbours then moves its share of the intervals,
  // which the median over intervals passes over, not the whole run.
  const std::vector<int> cpus = allowed_cpus();
  const auto use_cpu = [&](std::size_t i, const std::vector<pid_t>& tids) {
    if (w->one_cpu() && !cpus.empty()) set_cpus(tids, {cpus[i % cpus.size()]});
  };
  struct Restore {
    const std::vector<int>& cpus;
    ~Restore() { set_cpus(own_threads(), cpus); }
  } restore{cpus};
  if (w->one_cpu()) out.notes.push_back("one CPU at a time, in turn each of " + std::to_string(cpus.size()));
  const bool routed = w->routed();
  const bool store = routed;  // the fleet journals to fresh per-run stores

  // Set-up, repeated; the last program started stays up for the timed phase.
  std::vector<double> setups;
  Started main;
  for (int i = 0; i < kSetups; ++i) {
    if (main.server) main.server->stop(10);
    use_cpu(static_cast<std::size_t>(i), own_threads());
    main = start_program(o, *w, checker, routed, store, dir + "/s" + std::to_string(i), &out.error);
    if (!main.server) {
      out.errored = true;
      return out;
    }
    setups.push_back(main.setup_s);
  }
  Server& server = *main.server;

  std::optional<double> wake0;
  if (o.trace && !routed) wake0 = scrape(server, "bisched_serve_loop_wakeups_total");
  // Peak RSS is read when request rss_at() is sent: after a fixed amount of
  // work, so the figure does not follow how many fresh instances a faster
  // or slower run happened to cache.
  double rss = 0;
  // Threads are listed afresh each interval: a program may start one per
  // connection.
  const auto rotate = [&](std::size_t i) {
    if (!w->one_cpu()) return;
    std::vector<pid_t> tids = own_threads();
    for (pid_t t : server.threads()) tids.push_back(t);
    use_cpu(i, tids);
  };
  const Phase timed = run_closed_loop(server.socket(), kConnections, o.seconds,
                                      [&](std::uint64_t k, std::string* frame) {
                                        if (k == w->rss_at()) rss = server.peak_rss_mb();
                                        *frame = w->frame(k);
                                        return true;
                                      },
                                      false, rotate);
  std::optional<double> wake1;
  if (o.trace && !routed) wake1 = scrape(server, "bisched_serve_loop_wakeups_total");
  if (rss == 0) {
    rss = server.peak_rss_mb();
    out.notes.push_back("WARNING: server_rss_mb read at the end: fewer than " +
                        std::to_string(w->rss_at()) + " requests were sent");
  }
  check_stream(timed, *w, 0, checker, w->expects_hits());

  const std::vector<double> lat = latencies(timed);
  const std::size_t ok = ok_replies(timed);
  std::map<std::string, double> hits;
  for (const Sample& s : timed.samples) hits[json_string(s.reply, "solve_cache").value_or("")] += 1;
  const double hit_ratio =
      ok == 0 ? 0 : (hits["hit-memory"] + hits["hit-disk"]) / static_cast<double>(ok);

  if (!o.trace) {
    const Windows win = windowed(timed, o.seconds, w->tail_percentile(), w->per_window());
    out.notes.insert(out.notes.end(), win.notes.begin(), win.notes.end());
    out.notes.push_back("setup_s median of " + std::to_string(kSetups) + " set-ups");
    const double scale = host_scale(timed);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "host reference %.4f ms (median of %zu), %.1f%% of wanted CPU time withheld: "
                  "times scaled by %.4f; as measured: "
                  "req_per_s %.6g, latency_p50_ms %.6g, latency_tail_ms %.6g, setup_s %.6g",
                  median(timed.reference_ms), timed.reference_ms.size(), 100 * withheld(timed), scale,
                  win.req_per_s,
                  win.p50_ms, win.tail_ms, median(setups));
    out.notes.push_back(buf);
    out.metrics.push_back({"req_per_s", win.req_per_s / scale, "req/s"});
    out.metrics.push_back({"latency_p50_ms", win.p50_ms * scale, "ms"});
    out.metrics.push_back({"latency_tail_ms", win.tail_ms * scale, "ms"});
    out.metrics.push_back({"setup_s", median(setups) * scale, "s"});
    out.metrics.push_back({"server_rss_mb", rss, "MiB"});
    out.metrics.push_back({"makespan_ratio", checker.makespan_ratio(), "ratio"});
  } else {
    // Traced end-to-end phase: the same loop, each request recorded as spans.
    const std::uint64_t base = timed.samples.size();
    SpanLog log;
    const Phase traced = run_stream(server, *w, base, o.seconds / 2, UINT64_MAX, true);
    for (const Sample& s : traced.samples) {
      const std::uint64_t k = base + s.slot;
      const int root = log.begin("wire.request", k);
      log.at(root).start_ns = s.sent_ns;
      log.at(root).end_ns = s.replied_ns;
      int id = log.begin("wire.send", k, root);
      log.at(id).start_ns = s.sent_ns;
      log.at(id).end_ns = s.flushed_ns;
      id = log.begin("wire.await", k, root);
      log.at(id).start_ns = s.flushed_ns;
      log.at(id).end_ns = s.replied_ns;
    }
    check_stream(traced, *w, base, checker, w->expects_hits());
    const double overhead = median(latencies(traced)) / median(lat);

    // Router hop: the same slice routed and direct.
    // Both start mid-way through the timed stream, past its ramp-up.
    const std::uint64_t first = timed.samples.size() / 2;
    const std::uint64_t slice = name == "cold-mix" ? kHopSliceCold : kHopSlice;
    std::map<std::uint64_t, double> direct = latency_by_index(timed, 0);
    std::map<std::uint64_t, double> routed_lat;
    std::string router_stats;
    if (routed) {
      routed_lat = direct;
      router_stats = server.request("stats perfbench\n");
      Started other = start_program(o, *w, checker, false, store, dir + "/direct", &out.error);
      if (!other.server) {
        out.errored = true;
        return out;
      }
      wake0 = scrape(*other.server, "bisched_serve_loop_wakeups_total");
      const Phase p = run_stream(*other.server, *w, first, 0, slice);
      wake1 = scrape(*other.server, "bisched_serve_loop_wakeups_total");
      check_stream(p, *w, first, checker, false);
      direct = latency_by_index(p, first);
      other.server->stop(10);
    } else {
      Started other = start_program(o, *w, checker, true, store, dir + "/routed", &out.error);
      if (!other.server) {
        out.errored = true;
        return out;
      }
      const Phase p = run_stream(*other.server, *w, first, 0, slice);
      check_stream(p, *w, first, checker, false);
      routed_lat = latency_by_index(p, first);
      router_stats = other.server->request("stats perfbench\n");
      other.server->stop(10);
    }
    const double routed_requests = json_number(router_stats, "requests").value_or(0);
    const auto per_req = [&](const char* field) {
      return routed_requests > 0 ? json_number(router_stats, field).value_or(0) / routed_requests
                                 : 0.0;
    };

    // The in-process ledger on the same stream.
    LedgerCheck lcheck;
    run_ledger(*w, first, o.seconds, 40, 20000,
               [&](std::uint64_t k) { return checker.makespan(w->key(k)); }, log, &lcheck);
    for (const std::string& f : lcheck.failures) checker.fail("ledger " + f);
    out.notes.push_back("ledger: " + std::to_string(lcheck.checked) +
                        " schedules validated against the generated instances");

    layer_metrics(log, direct, &out.metrics, &out.notes);
    const double direct_requests = static_cast<double>(routed ? direct.size() : timed.samples.size());
    out.metrics.push_back({"serve.loop_wakeups_per_req",
                           wake0 && wake1 && direct_requests > 0 ? (*wake1 - *wake0) / direct_requests : 0.0,
                           "count"});
    out.metrics.push_back({"cache.result_hit_ratio", hit_ratio, "ratio"});
    out.metrics.push_back({"route.self_ms", median_difference(routed_lat, direct), "ms"});
    out.metrics.push_back({"route.retries_per_req", per_req("retries"), "count"});
    out.metrics.push_back({"route.failovers_per_req", per_req("failovers"), "count"});
    out.metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});

    const std::string spans_path = o.work_dir + "/out/" + name + "-seed" + std::to_string(o.seed) +
                                   ".spans.jsonl";
    fs::create_directories(o.work_dir + "/out");
    if (!log.write_jsonl(spans_path)) out.notes.push_back("could not write " + spans_path);
    out.notes.push_back("spans: " + spans_path + " (" + std::to_string(log.spans().size()) + ")");
    out.notes.push_back("per-layer ledger (in-process, single thread):\n" + layer_table(log));
  }

  if (!server.stop(10)) out.notes.push_back("program did not stop on `shutdown`; killed");
  main.server.reset();

  out.attempted = checker.attempted();
  out.failed = checker.failed();
  if (!o.trace) {
    // error_ratio inverted, so the metric is never 0.
    out.metrics.push_back({"ok_ratio",
                           1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                           "ratio"});
  }
  out.ok = checker.failed() == 0;
  for (const std::string& f : checker.failures()) out.notes.push_back("FAILED " + f);
  if (out.ok) fs::remove_all(dir);
  return out;
}

void print_outcome(const std::string& name, const Options& o, const Outcome& r) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", name.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-30s %16.6f ratio (%zu of %zu failed)\n", "error_ratio",
              r.attempted == 0 ? 0.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              r.failed, r.attempted);
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  std::string json = "{\"correct\": ";
  json += r.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.metrics[i].name.c_str(), r.metrics[i].value,
                  r.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --cli PATH --workload NAME|all --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench_runner --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--cli") {
      o.cli = v;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else {
      return usage();
    }
  }
  if (o.cli.empty() || o.workload.empty() || o.work_dir.empty() || !(o.seconds > 0)) return usage();
  std::error_code ec;
  o.cli = fs::absolute(o.cli, ec).string();
  prepare_process();

  std::vector<std::string> names;
  if (o.workload == "all") {
    names = Workload::names();
  } else {
    names.push_back(o.workload);
  }
  int status = 0;
  for (const std::string& name : names) {
    const Outcome r = run_workload(o, name);
    if (r.errored) {
      std::fprintf(stderr, "perfbench %s: %s\n", name.c_str(), r.error.c_str());
      return 2;
    }
    print_outcome(name, o, r);
    if (!r.ok) status = 1;
  }
  return status;
}
