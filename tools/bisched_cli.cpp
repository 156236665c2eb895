// bisched_cli — command-line front end for the library, built on the solver
// engine (src/engine): the registry supplies every algorithm, `auto` picks
// the strongest applicable one, `batch` streams a directory or manifest of
// instances across a thread pool (sharded with --shard=i/n for fleets), and
// `serve` keeps one registry + warm state + pool alive answering framed
// requests over stdin, a unix-domain socket, or TCP. Every solve goes
// through the engine/api v1 SolveRequest/SolveResponse boundary, so `solve
// --json`, batch rows, and serve responses are the same schema — and every
// mode takes `--store=DIR` to back its caches with the persistent warm-state
// store (engine/store), so a fresh process pointed at a populated directory
// answers repeats from disk instead of re-solving.
//
//   bisched_cli solve --alg=NAME|auto [--eps=E] [--all] [--budget-ms=B]
//                     [--json] [--spans] [--stable] [--store=DIR] [FILE|-]
//   bisched_cli batch (--dir=D | --manifest=F) [--alg=NAME|auto] [--threads=N]
//                     [--shard=i/n] [--format=csv|json] [--out=FILE] [--eps=E]
//                     [--stable] [--store=DIR]
//   bisched_cli serve [--alg=NAME|auto] [--threads=N] [--max-inflight=K]
//                     [--eps=E] [--stable] [--store=DIR] [--slow-ms=MS]
//                     [--listen=unix:PATH | --listen=tcp:HOST:PORT]
//                     [--allow-remote]
//   bisched_cli client (--connect=unix:PATH | --connect=tcp:HOST:PORT)
//   bisched_cli metrics (--connect=unix:PATH | --connect=tcp:HOST:PORT)
//   bisched_cli list-algs [--json]
//   bisched_cli gen <family> [options]
//   bisched_cli eval INSTANCE SCHEDULE
//
// Instances are read from the given file or stdin ('-'); schedules are
// written to stdout in the bisched schedule format, with a summary on
// stderr. Malformed flag values are reported, never silently parsed as 0.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/api.hpp"
#include "engine/batch.hpp"
#include "engine/fleet/router.hpp"
#include "engine/graph_classes.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/sim/driver.hpp"
#include "engine/sim/report.hpp"
#include "engine/sim/scenario.hpp"
#include "engine/store/bench_history.hpp"
#include "engine/telemetry/metrics.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "sched/simd_dispatch.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "sched/lower_bounds.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using namespace bisched;

int usage() {
  std::cerr <<
      "usage:\n"
      "  bisched_cli solve --alg=NAME|auto [--eps=E] [--all] [--budget-ms=B]\n"
      "              [--json] [--spans] [--stable] [--store=DIR] [FILE|-]\n"
      "  bisched_cli batch (--dir=DIR | --manifest=FILE) [--alg=NAME|auto]\n"
      "              [--threads=N] [--shard=i/n] [--format=csv|json] [--out=FILE]\n"
      "              [--eps=E] [--all] [--budget-ms=B] [--stable] [--store=DIR]\n"
      "  bisched_cli serve [--alg=NAME|auto] [--threads=N] [--max-inflight=K]\n"
      "              [--eps=E] [--stable] [--store=DIR] [--allow-remote]\n"
      "              [--auth-token=T] [--session-max-inflight=K]\n"
      "              [--slow-ms=MS] (log solves slower than MS to stderr)\n"
      "              [--idle-timeout-ms=MS] (reap sessions idle > MS)\n"
      "              [--pipeline-depth=K] (park reads past K in-flight\n"
      "               frames per session; default 64)\n"
      "              [--listen=unix:PATH | --listen=tcp:HOST:PORT]\n"
      "              (framed requests on stdin or the socket; see docs/api.md;\n"
      "               --allow-remote requires an auth token, also readable\n"
      "               from $BISCHED_AUTH_TOKEN)\n"
      "  bisched_cli route [--fleet=N] [--store=DIR] [--alg=NAME|auto] [--eps=E]\n"
      "              [--stable] [--threads=N] (per-backend solve threads)\n"
      "              [--max-inflight=K] [--deadline-ms=MS]\n"
      "              [--timeout-ms=MS] (per-attempt backend read deadline)\n"
      "              [--health-ms=MS] [--listen=unix:PATH | tcp:HOST:PORT]\n"
      "              (supervised local serve fleet behind one routing\n"
      "               front-end; see docs/fleet.md)\n"
      "  bisched_cli client (--connect=unix:PATH | --connect=tcp:HOST:PORT)\n"
      "              [--auth-token=T] [--timeout-ms=MS] (frames on stdin ->\n"
      "              responses; the timeout bounds each read on the socket)\n"
      "              [--pipeline=N] (keep up to N single-line frames in\n"
      "              flight; asserts responses come back in send order)\n"
      "  bisched_cli metrics (--connect=unix:PATH | --connect=tcp:HOST:PORT)\n"
      "              [--timeout-ms=MS]\n"
      "              (one Prometheus text-exposition scrape of a running serve)\n"
      "  bisched_cli sim (--scenario=FILE | --trace-in=FILE) [--seed=S]\n"
      "              [--connect=unix:PATH | tcp:HOST:PORT] (default: in-process)\n"
      "              [--connections=N] [--sla-ms=MS] [--timeout-ms=MS]\n"
      "              [--max-attempts=K] [--alg=NAME|auto] [--eps=E] [--stable]\n"
      "              [--store=DIR] [--json-out=FILE] [--html-out=FILE]\n"
      "              [--trace-out=FILE] [--out=FILE] [--auth-token=T]\n"
      "              (trace-driven open-loop load replay; see docs/sim.md)\n"
      "  bisched_cli stats --store=DIR (what a warm store holds: cache\n"
      "              namespaces and recorded bench-history runs)\n"
      "  bisched_cli list-algs [--json]\n"
      "  bisched_cli gen gilbert --n=N --a=A --m=M [--smax=S] [--seed=SEED]\n"
      "  bisched_cli gen crown --n=N --m=M [--wmax=W] [--seed=SEED]\n"
      "  bisched_cli gen r2 --n=N --tmax=T [--edges=K] [--seed=SEED]\n"
      "  bisched_cli eval INSTANCE SCHEDULE\n"
      "algorithms (see `list-algs` for applicability):\n  ";
  bool first = true;
  for (const auto& name : engine::SolverRegistry::builtin().names()) {
    std::cerr << (first ? "" : ", ") << name;
    first = false;
  }
  std::cerr << "\n";
  return 2;
}

// ------------------------------------------------------------------ flags ---
// std::from_chars-based parsing: a malformed or trailing-garbage value is a
// hard error (exit 2 with a message), never a silent 0.

[[noreturn]] void flag_error(const char* name, const std::string& value,
                             const char* expected) {
  std::cerr << "bad value for --" << name << ": '" << value << "' (expected "
            << expected << ")\n";
  std::exit(2);
}

bool flag_value(int argc, char** argv, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *out = argv[i] + prefix.size();
      return true;
    }
  }
  return false;
}

bool flag_present(int argc, char** argv, const char* name) {
  const std::string bare = std::string("--") + name;
  for (int i = 2; i < argc; ++i) {
    if (bare == argv[i]) return true;
  }
  return false;
}

std::int64_t flag_int(int argc, char** argv, const char* name, std::int64_t fallback) {
  std::string value;
  if (!flag_value(argc, argv, name, &value)) return fallback;
  std::int64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    flag_error(name, value, "an integer");
  }
  return parsed;
}

double flag_double(int argc, char** argv, const char* name, double fallback) {
  std::string value;
  if (!flag_value(argc, argv, name, &value)) return fallback;
  double parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    flag_error(name, value, "a number");
  }
  return parsed;
}

unsigned flag_threads(int argc, char** argv) {
  const std::int64_t threads = flag_int(argc, argv, "threads", 0);
  if (threads < 0 || threads > 4096) {
    flag_error("threads", std::to_string(threads), "a count in [0, 4096]");
  }
  return threads == 0 ? default_thread_count() : static_cast<unsigned>(threads);
}

// ------------------------------------------------------------- warm state ---

// The process's WarmState from --store=DIR (memory-only without the flag).
// Load anomalies — a rejected snapshot after a codec version bump, a torn
// journal tail after a crash — are reported on stderr; the store recovers
// and keeps working either way.
std::unique_ptr<engine::WarmState> make_warm_state(int argc, char** argv) {
  engine::WarmOptions options;
  flag_value(argc, argv, "store", &options.store_dir);
  std::string message;
  auto warm = std::make_unique<engine::WarmState>(options, &message);
  if (!message.empty()) std::cerr << "store: " << message << "\n";
  return warm;
}

// Final durability for --store runs: compact both namespaces so the next
// boot loads one snapshot per namespace instead of replaying a journal.
void checkpoint_warm(engine::WarmState& warm) {
  if (!warm.persistent()) return;
  std::string error;
  if (!warm.checkpoint(&error)) {
    std::cerr << "store: checkpoint failed: " << error << "\n";
  }
}

// One stderr vocabulary for both caches' counters across batch and serve.
void print_cache_stats(const char* name, const engine::CacheStats& s) {
  std::cerr << name << " cache " << s.hits << " hits / " << s.disk_hits << " disk hits / "
            << s.misses << " misses / " << s.evictions << " evictions (" << s.entries
            << " entries, " << s.disk_entries << " on disk)";
}

void print_cache_stats(const engine::CacheStats& profile, const engine::CacheStats& result) {
  print_cache_stats("probe", profile);
  std::cerr << ", ";
  print_cache_stats("result", result);
}

// --------------------------------------------------------------------- io ---

ParsedInstance read_instance(const std::string& path) {
  if (path == "-" || path.empty()) return parse_instance(std::cin);
  std::ifstream file(path);
  if (!file) {
    ParsedInstance bad;
    bad.error = "cannot open '" + path + "'";
    return bad;
  }
  return parse_instance(file);
}

// ------------------------------------------------------------------ solve ---

int cmd_solve(int argc, char** argv) {
  engine::SolveRequest request;
  if (!flag_value(argc, argv, "alg", &request.alg)) return usage();
  request.has_eps = true;
  request.eps = flag_double(argc, argv, "eps", 0.1);
  request.has_run_all = true;
  request.run_all = flag_present(argc, argv, "all");
  request.has_budget_ms = true;
  request.budget_ms = flag_double(argc, argv, "budget-ms", 0);
  const bool json = flag_present(argc, argv, "json");
  const bool stable = flag_present(argc, argv, "stable");
  request.want_spans = flag_present(argc, argv, "spans");
  // Portfolio-only flags must not be silently ignored on a named solver.
  if (request.run_all && request.alg != "auto") {
    std::cerr << "--all requires --alg=auto\n";
    return 2;
  }
  if (request.budget_ms != 0 && !request.run_all) {
    std::cerr << "--budget-ms requires --all (it bounds the run-all portfolio)\n";
    return 2;
  }
  std::string path = "-";
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] != '-' || std::strcmp(argv[i], "-") == 0) path = argv[i];
  }

  // One request through the engine API — the same construct/execute/emit
  // path batch rows and serve responses take, warm state included: with
  // --store=DIR a repeated solve is answered from the disk tier of a
  // previous process. The instance is parsed up front (once) for the stderr
  // summary line; the request carries the parsed form plus the path as its
  // label.
  const auto& registry = engine::SolverRegistry::builtin();
  const auto warm = make_warm_state(argc, argv);
  auto parsed = std::make_shared<ParsedInstance>(read_instance(path));
  request.parsed = parsed;
  if (path != "-" && !path.empty()) request.path = path;

  if (parsed->ok()) {
    if (parsed->uniform.has_value()) {
      const UniformInstance& inst = *parsed->uniform;
      std::cerr << "uniform instance: " << inst.num_jobs() << " jobs, "
                << inst.num_machines() << " machines, lower bound "
                << lower_bound(inst).to_string() << "\n";
    } else {
      std::cerr << "unrelated instance: " << parsed->unrelated->num_jobs()
                << " jobs, " << parsed->unrelated->num_machines() << " machines\n";
    }
  }

  // Parse errors take the same path as every other failure: run_request
  // turns them into an error response, so --json always emits exactly one
  // v1 row — identical to what batch or serve would say about this input.
  engine::SolveResult result;
  engine::SolveResponse response =
      engine::run_request(registry, *warm, request, "auto", {}, &result);
  checkpoint_warm(*warm);
  if (stable) response.strip_timing();

  if (json) {
    // The v1 response row, exactly as batch/serve would emit it.
    engine::write_response_json(std::cout, response);
  }
  if (!response.ok) {
    std::cerr << (parsed->ok() ? "solve failed: " : "") << response.error << "\n";
    return 1;
  }
  if (!json) write_schedule(std::cout, result.schedule);
  std::cerr << result.solver << " (guarantee " << result.guarantee << "): makespan "
            << result.cmax.to_string() << " (" << result.cmax.to_double() << "), "
            << result.wall_ms << " ms";
  if (result.solvers_tried > 1) std::cerr << ", " << result.solvers_tried << " solvers tried";
  std::cerr << "\n";
  return 0;
}

// ------------------------------------------------------------------ batch ---

// Parses "--shard=i/n" into a Shard; exits 2 on a malformed value.
engine::Shard flag_shard(int argc, char** argv) {
  engine::Shard shard;
  std::string value;
  if (!flag_value(argc, argv, "shard", &value)) return shard;
  const auto slash = value.find('/');
  bool ok = slash != std::string::npos;
  if (ok) {
    const auto parse_part = [&](std::size_t from, std::size_t to, int* out) {
      const auto [ptr, ec] = std::from_chars(value.data() + from, value.data() + to, *out);
      return ec == std::errc() && ptr == value.data() + to;
    };
    ok = parse_part(0, slash, &shard.index) &&
         parse_part(slash + 1, value.size(), &shard.count) && shard.valid();
  }
  if (!ok) flag_error("shard", value, "i/n with 0 <= i < n");
  return shard;
}

int cmd_batch(int argc, char** argv) {
  engine::BatchOptions options;
  flag_value(argc, argv, "alg", &options.alg);
  options.solve.eps = flag_double(argc, argv, "eps", 0.1);
  options.solve.run_all = flag_present(argc, argv, "all");
  options.solve.budget_ms = flag_double(argc, argv, "budget-ms", 0);
  options.threads = flag_threads(argc, argv);
  options.shard = flag_shard(argc, argv);
  options.stable_output = flag_present(argc, argv, "stable");
  if (options.solve.run_all && options.alg != "auto") {
    std::cerr << "--all requires --alg=auto\n";
    return 2;
  }
  if (options.solve.budget_ms != 0 && !options.solve.run_all) {
    std::cerr << "--budget-ms requires --all (it bounds the run-all portfolio)\n";
    return 2;
  }

  std::string source;
  std::string manifest;
  const bool have_dir = flag_value(argc, argv, "dir", &source);
  const bool have_manifest = flag_value(argc, argv, "manifest", &manifest);
  if (have_dir && have_manifest) {
    std::cerr << "--dir and --manifest are mutually exclusive\n";
    return 2;
  }
  if (have_manifest) source = manifest;
  if (!have_dir && !have_manifest) {
    std::cerr << "batch needs --dir=DIR or --manifest=FILE\n";
    return usage();
  }
  std::string format = "csv";
  flag_value(argc, argv, "format", &format);
  if (format != "csv" && format != "json") {
    flag_error("format", format, "'csv' or 'json'");
  }

  std::string error;
  auto paths = engine::collect_instance_paths(source, &error);
  if (!error.empty()) {
    std::cerr << "batch: " << error << "\n";
    return 1;
  }

  // Open the output before solving anything: an unwritable path must not
  // cost a full batch run. The output file is excluded from the sweep — by
  // path, not just filesystem equivalence, so a not-yet-created or
  // differently-spelled `--out` inside `--dir` can never be read back as a
  // (failing) instance — and an output inside the scanned directory draws a
  // warning: this run protects itself, but the *next* sweep would pick last
  // run's results up.
  std::string out_path;
  std::ofstream out_file;
  if (flag_value(argc, argv, "out", &out_path)) {
    engine::exclude_output_path(paths, out_path);
    if (have_dir && engine::path_inside_directory(out_path, source)) {
      std::cerr << "warning: --out='" << out_path << "' is inside --dir='" << source
                << "'; excluded from this sweep, but later sweeps of the directory "
                   "will read it as an instance — prefer an output path outside "
                   "the corpus\n";
    }
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot open '" << out_path << "' for writing\n";
      return 1;
    }
  }
  if (paths.empty()) {
    std::cerr << "batch: no instances found in '" << source << "'\n";
    return 1;
  }

  // Rows stream to the output as each solve completes (row.seq is the
  // input-order id); nothing is collected. The sink runs under the runner's
  // serialization mutex, so the writes need no further locking.
  const auto warm = make_warm_state(argc, argv);
  const engine::BatchRunner runner(engine::SolverRegistry::builtin(), options,
                                   warm.get());
  std::ostream& out = out_file.is_open() ? out_file : std::cout;
  const bool csv = format == "csv";
  if (csv) engine::write_response_header_csv(out);
  std::size_t total = 0;
  std::size_t failures = 0;
  // Per-row flushing only matters when a pipe/stdout peer consumes rows
  // live; a file keeps its buffering (one flush at the end).
  const bool flush_rows = !out_file.is_open();
  runner.run_streaming(paths, [&](const engine::BatchRow& row) {
    ++total;
    failures += row.ok ? 0 : 1;
    if (csv) {
      engine::write_response_csv(out, row);
    } else {
      engine::write_response_json(out, row);
    }
    if (flush_rows) out.flush();
  });
  out.flush();
  if (!out) {
    std::cerr << "write error on " << (out_file.is_open() ? "'" + out_path + "'" : "stdout")
              << " (results may be truncated)\n";
    return 1;
  }

  // Final flush: the whole run's warmth becomes the durable artifact the
  // next process (or fleet shard) boots from.
  checkpoint_warm(*warm);

  std::cerr << "batch: " << total << " instances (shard " << options.shard.index << "/"
            << options.shard.count << "), " << failures << " failures, "
            << options.threads << " threads, ";
  print_cache_stats(runner.cache().stats(), runner.results().stats());
  std::cerr << "\n";
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ serve ---

// A parsed --listen/--connect value: "unix:PATH" or "tcp:HOST:PORT" (HOST
// may be a bracketed IPv6 literal: tcp:[::1]:9000).
struct Endpoint {
  enum class Kind { kNone, kUnix, kTcp };
  Kind kind = Kind::kNone;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp; 0 = ephemeral (serve prints the chosen one)
};

// Parses "--NAME=unix:PATH|tcp:HOST:PORT"; exits 2 on an unknown scheme or
// a malformed tcp host/port.
Endpoint flag_endpoint(int argc, char** argv, const char* name) {
  Endpoint endpoint;
  std::string value;
  if (!flag_value(argc, argv, name, &value)) return endpoint;
  const auto expect = "unix:PATH or tcp:HOST:PORT";
  if (value.rfind("unix:", 0) == 0) {
    endpoint.path = value.substr(5);
    if (endpoint.path.empty()) flag_error(name, value, expect);
    endpoint.kind = Endpoint::Kind::kUnix;
    return endpoint;
  }
  if (value.rfind("tcp:", 0) == 0) {
    const std::string spec = value.substr(4);
    // The LAST colon splits host from port, so bare IPv6 works either
    // bracketed ([::1]:80) or raw (::1:80 — the trailing group is the port).
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
      flag_error(name, value, expect);
    }
    endpoint.host = spec.substr(0, colon);
    const std::string port_text = spec.substr(colon + 1);
    int port = -1;
    const auto [ptr, ec] =
        std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc() || ptr != port_text.data() + port_text.size() || port < 0 ||
        port > 65535) {
      flag_error(name, value, "a tcp port in [0, 65535]");
    }
    endpoint.port = port;
    endpoint.kind = Endpoint::Kind::kTcp;
    return endpoint;
  }
  flag_error(name, value, expect);
}

int cmd_serve(int argc, char** argv) {
  engine::ServeOptions options;
  flag_value(argc, argv, "alg", &options.alg);
  options.solve.eps = flag_double(argc, argv, "eps", 0.1);
  options.threads = flag_threads(argc, argv);
  options.stable_output = flag_present(argc, argv, "stable");
  options.slow_ms = flag_double(argc, argv, "slow-ms", -1);
  const std::int64_t inflight = flag_int(argc, argv, "max-inflight", 0);
  if (inflight < 0 || inflight > 1 << 20) {
    flag_error("max-inflight", std::to_string(inflight), "a count in [0, 2^20]");
  }
  options.max_inflight = static_cast<std::size_t>(inflight);
  const std::int64_t session_quota = flag_int(argc, argv, "session-max-inflight", 0);
  if (session_quota < 0 || session_quota > 1 << 20) {
    flag_error("session-max-inflight", std::to_string(session_quota),
               "a count in [0, 2^20]");
  }
  options.session_max_inflight = static_cast<std::size_t>(session_quota);
  const std::int64_t idle_ms = flag_int(argc, argv, "idle-timeout-ms", 0);
  if (idle_ms < 0 || idle_ms > 86400000) {
    flag_error("idle-timeout-ms", std::to_string(idle_ms), "ms in [0, 86400000]");
  }
  options.idle_timeout_ms = static_cast<int>(idle_ms);
  const std::int64_t pipeline_depth = flag_int(argc, argv, "pipeline-depth", 0);
  if (pipeline_depth < 0 || pipeline_depth > 1 << 20) {
    flag_error("pipeline-depth", std::to_string(pipeline_depth),
               "a count in [0, 2^20]");
  }
  options.pipeline_depth = static_cast<std::size_t>(pipeline_depth);
  // Token from the flag, else the environment — the env form keeps the
  // secret out of `ps` output on shared hosts.
  if (!flag_value(argc, argv, "auth-token", &options.auth_token)) {
    const char* env_token = std::getenv("BISCHED_AUTH_TOKEN");
    if (env_token != nullptr) options.auth_token = env_token;
  }

  const auto warm = make_warm_state(argc, argv);
  engine::ServeStats stats;
  const Endpoint listen = flag_endpoint(argc, argv, "listen");
  if (listen.kind != Endpoint::Kind::kNone) {
    // Socket mode: one resident Server, concurrent client sessions, until a
    // client sends `shutdown`. The listener is opened here so the actual
    // endpoint (tcp port 0 resolves to a real port) can be announced before
    // the first client needs it.
    std::string error;
    std::unique_ptr<engine::Listener> listener;
    if (listen.kind == Endpoint::Kind::kUnix) {
      listener = engine::UnixListener::open(listen.path, &error);
    } else {
      const bool allow_remote = flag_present(argc, argv, "allow-remote");
      // A non-loopback bind without a token would take unauthenticated
      // solves from the whole network segment; refuse outright rather than
      // serve open.
      if (allow_remote && options.auth_token.empty()) {
        std::cerr << "serve: --allow-remote requires an auth token "
                     "(--auth-token=T or $BISCHED_AUTH_TOKEN)\n";
        return 2;
      }
      listener = engine::TcpListener::open(listen.host, listen.port, allow_remote,
                                           &error);
    }
    if (listener == nullptr) {
      std::cerr << "serve: " << error << "\n";
      return 1;
    }
    std::cerr << "serve: listening on " << listener->endpoint() << "\n";
    stats = engine::serve_listener(engine::SolverRegistry::builtin(), *listener,
                                   options, &error, warm.get());
    if (!error.empty()) {
      std::cerr << "serve: " << error << "\n";
      return 1;
    }
  } else {
    std::string error;
    stats = engine::serve(engine::SolverRegistry::builtin(), STDIN_FILENO,
                          STDOUT_FILENO, options, &error, warm.get());
    if (!error.empty()) {
      std::cerr << "serve: " << error << "\n";
      return 1;
    }
  }
  checkpoint_warm(*warm);
  std::cerr << "serve: " << stats.requests << " requests (" << stats.solve_frames
            << " solve, " << stats.stats_frames << " stats, " << stats.metrics_frames
            << " metrics, " << stats.malformed << " malformed), " << stats.ok
            << " ok, " << stats.errors << " errors, " << stats.sessions
            << " sessions, ";
  print_cache_stats(stats.cache, stats.results);
  std::cerr << "\n";
  return stats.errors == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ route ---

// Fleet front-end: spawn + supervise N local serve backends, route framed
// requests over them by a hash of the forwarded bytes with health-checked
// retry/failover (engine/fleet). Speaks the same frame grammar as serve, on
// stdin or a loopback socket; remote exposure stays serve's business (the
// router holds no auth).
int cmd_route(int argc, char** argv) {
  engine::fleet::RouterOptions options;
  const std::int64_t fleet = flag_int(argc, argv, "fleet", 2);
  if (fleet < 1 || fleet > 64) {
    flag_error("fleet", std::to_string(fleet), "a backend count in [1, 64]");
  }
  options.fleet = static_cast<std::size_t>(fleet);
  flag_value(argc, argv, "store", &options.store_dir);

  // Solve-shaping flags are the BACKENDS' business; forward them verbatim.
  std::string value;
  if (flag_value(argc, argv, "alg", &value)) {
    options.serve_args.push_back("--alg=" + value);
  }
  if (flag_value(argc, argv, "eps", &value)) {
    options.serve_args.push_back("--eps=" + value);
  }
  if (flag_value(argc, argv, "threads", &value)) {
    options.serve_args.push_back("--threads=" + value);
  }
  if (flag_present(argc, argv, "stable")) options.serve_args.push_back("--stable");

  const std::int64_t inflight = flag_int(argc, argv, "max-inflight", 0);
  if (inflight < 0 || inflight > 1 << 20) {
    flag_error("max-inflight", std::to_string(inflight), "a count in [0, 2^20]");
  }
  options.max_inflight = static_cast<std::size_t>(inflight);
  const std::int64_t deadline = flag_int(argc, argv, "deadline-ms", 30000);
  if (deadline < 1 || deadline > 86400000) {
    flag_error("deadline-ms", std::to_string(deadline), "ms in [1, 86400000]");
  }
  options.deadline_ms = static_cast<int>(deadline);
  const std::int64_t health_ms = flag_int(argc, argv, "health-ms", 250);
  if (health_ms < 1 || health_ms > 3600000) {
    flag_error("health-ms", std::to_string(health_ms), "ms in [1, 3600000]");
  }
  options.health_interval_ms = static_cast<int>(health_ms);
  const std::int64_t attempt_ms =
      flag_int(argc, argv, "timeout-ms", options.attempt_timeout_ms);
  if (attempt_ms < 1 || attempt_ms > 86400000) {
    flag_error("timeout-ms", std::to_string(attempt_ms), "ms in [1, 86400000]");
  }
  options.attempt_timeout_ms = static_cast<int>(attempt_ms);

  std::string error;
  engine::fleet::RouterStats stats;
  const Endpoint listen = flag_endpoint(argc, argv, "listen");
  if (listen.kind != Endpoint::Kind::kNone) {
    std::unique_ptr<engine::Listener> listener;
    if (listen.kind == Endpoint::Kind::kUnix) {
      listener = engine::UnixListener::open(listen.path, &error);
    } else {
      // Loopback only: the router does not authenticate, so it must never
      // face a network (front it with an authed serve or a tunnel instead).
      listener = engine::TcpListener::open(listen.host, listen.port,
                                           /*allow_remote=*/false, &error);
    }
    if (listener == nullptr) {
      std::cerr << "route: " << error << "\n";
      return 1;
    }
    std::cerr << "route: listening on " << listener->endpoint() << " ("
              << options.fleet << " backends)\n";
    stats = engine::fleet::route_listener(options, *listener, &error);
  } else {
    stats = engine::fleet::route_stdio(options, STDIN_FILENO, STDOUT_FILENO, &error);
  }
  if (!error.empty()) {
    std::cerr << "route: " << error << "\n";
    return 1;
  }
  std::cerr << "route: " << stats.requests << " requests, " << stats.ok << " ok, "
            << stats.errors << " errors (" << stats.degraded << " degraded), "
            << stats.retries << " retries, " << stats.failovers << " failovers, "
            << stats.respawns << " respawns, " << stats.breaker_trips
            << " breaker trips, backends " << stats.healthy << " healthy / "
            << stats.unhealthy << " unhealthy / " << stats.down << " down\n";
  return stats.errors == 0 ? 0 : 1;
}

// ----------------------------------------------------------------- client ---

// Pulls the integer value of a top-level `"seq"` member out of one JSON
// response line; -1 when absent. Enough JSON for an ordering assertion — the
// serializer always emits `"seq": <digits>` with exactly this spacing.
std::int64_t response_seq(const std::string& line) {
  const auto at = line.find("\"seq\": ");
  if (at == std::string::npos) return -1;
  std::int64_t seq = 0;
  const char* begin = line.data() + at + 7;
  const auto [ptr, ec] = std::from_chars(begin, line.data() + line.size(), seq);
  if (ec != std::errc() || ptr == begin) return -1;
  return seq;
}

// --pipeline=N: keep up to N frames in flight on the socket and check the
// server's per-session ordering contract — solve responses come back in send
// order (seq strictly increasing), no matter how the pool interleaves the
// work. Single-line frames only (JSON / `solve PATH` / probes); a native
// `instance` body spans lines and cannot be windowed line-by-line.
int run_pipelined_client(engine::FdTransport& transport, int fd,
                         std::size_t window) {
  struct Outgoing {
    std::string line;
    bool expects_response = true;
  };
  std::vector<Outgoing> frames;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string text = line;
    const auto start = text.find_first_not_of(" \t\r");
    text = start == std::string::npos ? "" : text.substr(start);
    if (text.empty() || text[0] == '#') continue;
    // auth is answered only on failure, quit/shutdown never: none of them
    // holds a window slot (a failure response still drains at EOF below).
    const bool silent = text.rfind("auth ", 0) == 0 || text == "quit" ||
                        text == "shutdown";
    frames.push_back({std::move(line), !silent});
  }

  std::size_t outstanding = 0;
  std::size_t responses = 0;
  std::int64_t last_seq = -1;
  bool ordered = true;
  bool open = true;
  const auto read_one = [&] {
    std::string resp;
    if (!std::getline(transport.in(), resp)) {
      open = false;
      return;
    }
    std::cout << resp << '\n';
    std::cout.flush();
    ++responses;
    if (outstanding > 0) --outstanding;
    // Introspection frames ("type": stats/metrics) are answered inline by
    // the server and may legally overtake queued solves — only solve/error
    // responses carry the ordering contract.
    if (resp.find("\"type\"") != std::string::npos) return;
    const std::int64_t seq = response_seq(resp);
    if (seq < 0) return;
    if (seq <= last_seq) {
      std::cerr << "client: ordering violation: seq " << seq << " after "
                << last_seq << "\n";
      ordered = false;
    }
    last_seq = seq;
  };

  for (const Outgoing& frame : frames) {
    while (open && outstanding >= window) read_one();
    if (!open) break;
    transport.out() << frame.line << '\n';
    transport.out().flush();
    if (!transport.out()) break;
    if (frame.expects_response) ++outstanding;
  }
  ::shutdown(fd, SHUT_WR);
  while (open) read_one();  // drain until the server closes the session
  std::cerr << "client: " << responses << " responses over a window of "
            << window << (ordered ? ", seq-ordered" : "") << "\n";
  return ordered ? 0 : 1;
}

// Minimal peer for socket serve: pumps stdin frames to the server and echoes
// response lines to stdout until the server closes the connection. Used by
// the CI smoke and handy for manual poking; any language with a unix-socket
// client can do the same.
int cmd_client(int argc, char** argv) {
  const Endpoint connect = flag_endpoint(argc, argv, "connect");
  if (connect.kind == Endpoint::Kind::kNone) {
    std::cerr << "client needs --connect=unix:PATH or --connect=tcp:HOST:PORT\n";
    return usage();
  }
  std::string error;
  const int fd = connect.kind == Endpoint::Kind::kUnix
                     ? engine::unix_connect(connect.path, &error)
                     : engine::tcp_connect(connect.host, connect.port, &error);
  if (fd < 0) {
    std::cerr << "client: " << error << "\n";
    return 1;
  }
  // A server that goes away mid-conversation should surface as EOF/write
  // failure, not kill the client with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  // --timeout-ms bounds every socket read/write (the fleet's per-attempt
  // deadline helper): a stalled server becomes EOF here instead of a hang.
  const std::int64_t read_ms = flag_int(argc, argv, "timeout-ms", 0);
  if (read_ms < 0 || read_ms > 86400000) {
    flag_error("timeout-ms", std::to_string(read_ms), "ms in [0, 86400000]");
  }
  if (read_ms > 0) {
    engine::set_io_timeout(fd, static_cast<int>(read_ms), static_cast<int>(read_ms));
  }

  engine::FdTransport transport(fd);
  // Authenticate first when a token is at hand (flag, else environment):
  // an authed serve answers nothing before the `auth` frame, and a
  // token-less serve ignores it.
  std::string token;
  if (!flag_value(argc, argv, "auth-token", &token)) {
    const char* env_token = std::getenv("BISCHED_AUTH_TOKEN");
    if (env_token != nullptr) token = env_token;
  }
  if (!token.empty()) {
    transport.out() << "auth " << token << '\n';
    transport.out().flush();
  }
  const std::int64_t pipeline = flag_int(argc, argv, "pipeline", 0);
  if (pipeline < 0 || pipeline > 1 << 20) {
    flag_error("pipeline", std::to_string(pipeline), "a window in [0, 2^20]");
  }
  if (pipeline > 0) {
    return run_pipelined_client(transport, fd, static_cast<std::size_t>(pipeline));
  }
  // Responses complete in the server's order, not ours, so read and write
  // concurrently: a response-per-request peer would otherwise deadlock on
  // full pipes.
  std::thread reader([&transport] {
    std::string line;
    while (std::getline(transport.in(), line)) {
      std::cout << line << '\n';
      std::cout.flush();
    }
  });
  std::string line;
  while (std::getline(std::cin, line)) {
    transport.out() << line << '\n';
    transport.out().flush();
  }
  // Half-close: the server sees EOF, drains this session, and closes the
  // socket — which ends the reader above.
  ::shutdown(fd, SHUT_WR);
  reader.join();
  return 0;
}

// ---------------------------------------------------------------- metrics ---

// One-shot Prometheus scrape: sends a `metrics` frame to a running socket
// serve, decodes the JSON-escaped exposition out of the response's "body"
// member, and prints it. `bisched_cli metrics --connect=... | promtool ...`
// style consumers get plain text/plain;version=0.0.4 on stdout.
int cmd_metrics(int argc, char** argv) {
  const Endpoint connect = flag_endpoint(argc, argv, "connect");
  if (connect.kind == Endpoint::Kind::kNone) {
    std::cerr << "metrics needs --connect=unix:PATH or --connect=tcp:HOST:PORT\n";
    return usage();
  }
  std::string error;
  const int fd = connect.kind == Endpoint::Kind::kUnix
                     ? engine::unix_connect(connect.path, &error)
                     : engine::tcp_connect(connect.host, connect.port, &error);
  if (fd < 0) {
    std::cerr << "metrics: " << error << "\n";
    return 1;
  }
  ::signal(SIGPIPE, SIG_IGN);
  const std::int64_t read_ms = flag_int(argc, argv, "timeout-ms", 0);
  if (read_ms < 0 || read_ms > 86400000) {
    flag_error("timeout-ms", std::to_string(read_ms), "ms in [0, 86400000]");
  }
  if (read_ms > 0) {
    engine::set_io_timeout(fd, static_cast<int>(read_ms), static_cast<int>(read_ms));
  }
  engine::FdTransport transport(fd);
  transport.out() << "metrics\n";
  transport.out().flush();
  std::string line;
  if (!std::getline(transport.in(), line)) {
    std::cerr << "metrics: server closed the connection without responding\n";
    return 1;
  }
  ::shutdown(fd, SHUT_WR);
  const auto frame = parse_flat_json_object(line, &error);
  if (!frame.has_value()) {
    std::cerr << "metrics: malformed response frame: " << error << "\n";
    return 1;
  }
  const auto body = frame->find("body");
  if (frame->count("type") == 0 || frame->at("type") != "metrics" ||
      body == frame->end()) {
    std::cerr << "metrics: unexpected response: " << line << "\n";
    return 1;
  }
  std::cout << body->second;  // already unescaped; ends with '\n' per exposition
  return 0;
}

// -------------------------------------------------------------------- sim ---

// Trace-driven load replay (engine/sim): expand a scenario (or re-run a
// saved trace) through the open-loop driver, then render the BENCH_sim.json
// and HTML reports. Per-request failures are *recorded*, never fatal — the
// exit code distinguishes "the run could not happen" (1) from "the run
// happened and here is what it measured" (0), so a fault-injection run that
// absorbed a backend crash still exits 0 with retries>0 in the report.
int cmd_sim(int argc, char** argv) {
  std::string scenario_path;
  std::string trace_in;
  const bool have_scenario = flag_value(argc, argv, "scenario", &scenario_path);
  const bool have_trace_in = flag_value(argc, argv, "trace-in", &trace_in);
  if (!have_scenario && !have_trace_in) {
    std::cerr << "sim needs --scenario=FILE or --trace-in=FILE\n";
    return usage();
  }

  std::string error;
  engine::sim::Trace trace;
  if (have_trace_in) {
    // A saved trace replays byte-identically; --scenario/--seed are ignored.
    std::ifstream file(trace_in);
    if (!file) {
      std::cerr << "sim: cannot open '" << trace_in << "'\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto decoded = engine::sim::decode_trace(buffer.str(), &error);
    if (!decoded.has_value()) {
      std::cerr << "sim: " << trace_in << ": " << error << "\n";
      return 1;
    }
    trace = std::move(*decoded);
  } else {
    auto scenario = engine::sim::load_scenario(scenario_path, &error);
    if (!scenario.has_value()) {
      std::cerr << "sim: " << error << "\n";
      return 1;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(
        flag_int(argc, argv, "seed", static_cast<std::int64_t>(scenario->seed)));
    auto generated = engine::sim::generate_trace(*scenario, seed, &error);
    if (!generated.has_value()) {
      std::cerr << "sim: " << error << "\n";
      return 1;
    }
    trace = std::move(*generated);
  }

  std::string trace_out;
  if (flag_value(argc, argv, "trace-out", &trace_out)) {
    std::ofstream out(trace_out);
    if (out) out << engine::sim::encode_trace(trace);
    if (!out || !out.flush()) {
      std::cerr << "sim: cannot write trace '" << trace_out << "'\n";
      return 1;
    }
    std::cerr << "sim: wrote trace " << trace_out << " (" << trace.entries.size()
              << " requests)\n";
  }

  engine::sim::DriverOptions options;
  const std::int64_t connections = flag_int(argc, argv, "connections", 4);
  if (connections < 1 || connections > 256) {
    flag_error("connections", std::to_string(connections), "a count in [1, 256]");
  }
  options.connections = static_cast<int>(connections);
  options.sla_ms = flag_double(argc, argv, "sla-ms", 50);
  if (!(options.sla_ms > 0)) {
    flag_error("sla-ms", std::to_string(options.sla_ms), "a positive latency budget");
  }
  const std::int64_t timeout = flag_int(argc, argv, "timeout-ms", 10000);
  if (timeout < 1 || timeout > 86400000) {
    flag_error("timeout-ms", std::to_string(timeout), "ms in [1, 86400000]");
  }
  options.timeout_ms = static_cast<int>(timeout);
  const std::int64_t attempts = flag_int(argc, argv, "max-attempts", 3);
  if (attempts < 1 || attempts > 100) {
    flag_error("max-attempts", std::to_string(attempts), "a count in [1, 100]");
  }
  options.max_attempts = static_cast<int>(attempts);
  flag_value(argc, argv, "alg", &options.default_alg);
  std::string value;
  if (flag_value(argc, argv, "eps", &value)) {
    options.has_eps = true;
    options.eps = flag_double(argc, argv, "eps", 0.1);
  }
  options.stable_outputs = flag_present(argc, argv, "stable");

  // In-process unless --connect points at a live serve/route.
  engine::sim::SimEndpoint endpoint;
  engine::sim::InProcessEngine in_process;
  std::unique_ptr<engine::WarmState> warm;
  std::string mode = "in-process";
  const Endpoint connect = flag_endpoint(argc, argv, "connect");
  if (connect.kind == Endpoint::Kind::kUnix) {
    endpoint.kind = engine::sim::SimEndpoint::Kind::kUnix;
    endpoint.path = connect.path;
    mode = "unix";
  } else if (connect.kind == Endpoint::Kind::kTcp) {
    endpoint.kind = engine::sim::SimEndpoint::Kind::kTcp;
    endpoint.host = connect.host;
    endpoint.port = connect.port;
    mode = "tcp";
  } else {
    warm = make_warm_state(argc, argv);
    in_process.registry = &engine::SolverRegistry::builtin();
    in_process.warm = warm.get();
  }
  if (!flag_value(argc, argv, "auth-token", &endpoint.auth_token)) {
    const char* env_token = std::getenv("BISCHED_AUTH_TOKEN");
    if (env_token != nullptr) endpoint.auth_token = env_token;
  }

  engine::telemetry::Registry registry;
  const engine::sim::DriverResult result =
      engine::sim::run_driver(trace, endpoint, options, registry, in_process);
  if (!result.ok) {
    std::cerr << "sim: " << result.error << "\n";
    return 1;
  }

  const auto phases = engine::sim::summarize(trace, result, registry);
  engine::sim::ReportOptions report;
  report.scenario = trace.scenario;
  report.seed = trace.seed;
  report.mode = mode;
  report.connections = options.connections;
  report.sla_ms = options.sla_ms;
  report.stable = options.stable_outputs;
  const std::string json =
      engine::sim::render_report_json(trace, result, phases, report);

  const std::string json_out = [&] {
    std::string path;
    if (!flag_value(argc, argv, "json-out", &path)) path = "BENCH_sim.json";
    return path;
  }();
  {
    std::ofstream out(json_out);
    if (out) out << json;
    if (!out || !out.flush()) {
      std::cerr << "sim: cannot write report '" << json_out << "'\n";
      return 1;
    }
  }
  std::string html_out;
  if (flag_value(argc, argv, "html-out", &html_out)) {
    std::ofstream out(html_out);
    if (out) out << engine::sim::render_report_html(trace, result, phases, report);
    if (!out || !out.flush()) {
      std::cerr << "sim: cannot write report '" << html_out << "'\n";
      return 1;
    }
  }
  // --out captures the raw response lines in trace order — the determinism
  // artifact (two --connections=1 --stable runs of one trace compare equal).
  std::string out_path;
  if (flag_value(argc, argv, "out", &out_path)) {
    std::ofstream out(out_path);
    for (const auto& sample : result.samples) out << sample.output << '\n';
    if (!out || !out.flush()) {
      std::cerr << "sim: cannot write outputs '" << out_path << "'\n";
      return 1;
    }
  }

  // The run also lands in the store's bench-history when --store is given:
  // through the warm state's own handle in-process (no lease race with the
  // caches), through a standalone open for live runs.
  std::string store_dir;
  if (flag_value(argc, argv, "store", &store_dir) && !store_dir.empty()) {
    std::string hist_error;
    bool recorded = false;
    if (warm != nullptr) {
      recorded = warm->persistent() &&
                 engine::store::append_bench_history(warm->bench_history(), "sim",
                                                     json, &hist_error);
    } else {
      recorded =
          engine::store::append_bench_history_at(store_dir, "sim", json, &hist_error);
    }
    if (recorded) {
      std::cerr << "sim: recorded run into " << store_dir << " bench-history\n";
    } else if (!hist_error.empty()) {
      std::cerr << "sim: bench-history: " << hist_error << "\n";
    }
  }

  // Human-facing summary on stdout; the JSON/HTML carry the full detail.
  TextTable table("sim: " + trace.scenario + " (seed " + std::to_string(trace.seed) +
                  ", " + mode + ", " + std::to_string(options.connections) +
                  " connections)");
  table.set_header({"phase", "requests", "ok", "errors", "retries", "sla_miss",
                    "p50_ms", "p95_ms", "p99_ms", "hit_mem", "hit_disk", "miss"});
  for (const auto& p : phases) {
    table.add_row({p.name, std::to_string(p.requests), std::to_string(p.ok),
                   std::to_string(p.errors), std::to_string(p.retries),
                   std::to_string(p.sla_miss), fmt_double(p.p50_ms),
                   fmt_double(p.p95_ms), fmt_double(p.p99_ms),
                   std::to_string(p.tier_memory), std::to_string(p.tier_disk),
                   std::to_string(p.tier_miss)});
  }
  table.print(std::cout);
  std::cout << "wrote " << json_out << (html_out.empty() ? "" : " and " + html_out)
            << "\n";
  if (warm != nullptr) checkpoint_warm(*warm);
  return 0;
}

// ------------------------------------------------------------------ stats ---

// What a --store=DIR directory holds: both cache namespaces' entry counts
// and every recorded bench-history run. Read-only degrade (another process
// holding the write lease) still lists everything.
int cmd_stats(int argc, char** argv) {
  std::string store_dir;
  if (!flag_value(argc, argv, "store", &store_dir) || store_dir.empty()) {
    std::cerr << "stats needs --store=DIR\n";
    return usage();
  }
  const auto warm = make_warm_state(argc, argv);
  if (!warm->persistent()) {
    std::cerr << "stats: cannot open store '" << store_dir << "'\n";
    return 1;
  }
  std::cout << "store: " << warm->store_dir()
            << (warm->store_read_only() ? " (read-only: write lease held elsewhere)"
                                        : "")
            << "\n";
  const auto probe = warm->profiles().stats();
  const auto result = warm->results().stats();
  std::cout << "profile namespace: " << probe.disk_entries << " entries\n";
  std::cout << "result namespace: " << result.disk_entries << " entries\n";
  const auto history = engine::store::list_bench_history(*warm->bench_history());
  std::cout << "bench-history: " << history.size() << " recorded runs\n";
  if (!history.empty()) {
    TextTable table;
    table.set_header({"bench", "recorded_ms", "bytes", "key"});
    for (const auto& entry : history) {
      table.add_row({entry.bench, std::to_string(entry.recorded_ms),
                     std::to_string(entry.bytes), entry.key});
    }
    table.print(std::cout);
  }
  return 0;
}

// -------------------------------------------------------------- list-algs ---

std::string models_label(unsigned models) {
  std::string out;
  if ((models & engine::kModelUniform) != 0) out = "Q";
  if ((models & engine::kModelUnrelated) != 0) out += out.empty() ? "R" : "+R";
  return out;
}

int cmd_list_algs(int argc, char** argv) {
  const auto& registry = engine::SolverRegistry::builtin();
  const auto& lattice = engine::GraphClassLattice::builtin();

  if (flag_present(argc, argv, "json")) {
    // Machine-readable catalog: the graph-class lattice (names + subsumption
    // edges, straight from the detector registry) and every solver's
    // capability row. One JSON object on one line.
    std::cout << "{\"v\": 1, \"simd\": " << json_quote(to_string(simd_level()))
              << ", \"graph_classes\": [";
    for (engine::GraphClassId id = 0; id < lattice.size(); ++id) {
      if (id != 0) std::cout << ", ";
      std::cout << "{\"name\": " << json_quote(lattice.name(id)) << ", \"parents\": [";
      const auto& parents = lattice.parents(id);
      for (std::size_t i = 0; i < parents.size(); ++i) {
        if (i != 0) std::cout << ", ";
        std::cout << json_quote(lattice.name(parents[i]));
      }
      std::cout << "]}";
    }
    std::cout << "], \"solvers\": [";
    bool first = true;
    for (const engine::Solver* s : registry.solvers()) {
      const auto& c = s->capabilities();
      if (!first) std::cout << ", ";
      first = false;
      std::cout << "{\"name\": " << json_quote(s->name())
                << ", \"models\": " << json_quote(models_label(c.models))
                << ", \"min_machines\": " << c.min_machines
                << ", \"max_machines\": " << c.max_machines
                << ", \"max_jobs\": " << c.max_jobs
                << ", \"unit_jobs_only\": " << (c.unit_jobs_only ? "true" : "false")
                << ", \"graph\": " << json_quote(engine::graph_class_name(c.graph))
                << ", \"guarantee\": " << json_quote(engine::to_string(c.guarantee))
                << ", \"guarantee_label\": " << json_quote(c.guarantee_label)
                << ", \"may_fail\": " << (c.may_fail ? "true" : "false")
                << ", \"summary\": " << json_quote(s->summary()) << "}";
    }
    std::cout << "]}\n";
    return 0;
  }

  TextTable t("Registered solvers");
  t.set_header({"name", "models", "machines", "jobs", "graph", "guarantee", "summary"});
  for (const engine::Solver* s : registry.solvers()) {
    const auto& c = s->capabilities();
    std::string machines = std::to_string(c.min_machines) + "..";
    machines += c.max_machines == 0 ? "m" : std::to_string(c.max_machines);
    std::string jobs = c.max_jobs == 0 ? "any" : "<=" + std::to_string(c.max_jobs);
    if (c.unit_jobs_only) jobs += " unit";
    t.add_row({s->name(), models_label(c.models), machines, jobs,
               engine::graph_class_name(c.graph), c.guarantee_label, s->summary()});
  }
  t.print(std::cout);
  return 0;
}

// -------------------------------------------------------------------- gen ---

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string family = argv[2];
  Rng rng(static_cast<std::uint64_t>(flag_int(argc, argv, "seed", 1)));
  if (family == "gilbert") {
    const int n = static_cast<int>(flag_int(argc, argv, "n", 100));
    const double a = flag_double(argc, argv, "a", 2.0);
    const int m = static_cast<int>(flag_int(argc, argv, "m", 4));
    const std::int64_t smax = flag_int(argc, argv, "smax", 8);
    Graph g = gilbert_bipartite(n, a / n, rng);
    std::vector<std::int64_t> speeds(static_cast<std::size_t>(m));
    for (auto& s : speeds) s = rng.uniform_int(1, smax);
    write_instance(std::cout,
                   make_uniform_instance(unit_weights(2 * n), std::move(speeds), std::move(g)));
    return 0;
  }
  if (family == "crown") {
    const int n = static_cast<int>(flag_int(argc, argv, "n", 20));
    const int m = static_cast<int>(flag_int(argc, argv, "m", 4));
    const std::int64_t wmax = flag_int(argc, argv, "wmax", 10);
    write_instance(std::cout,
                   make_uniform_instance(uniform_weights(2 * n, 1, wmax, rng),
                                         std::vector<std::int64_t>(static_cast<std::size_t>(m), 2),
                                         crown(n)));
    return 0;
  }
  if (family == "r2") {
    const int n = static_cast<int>(flag_int(argc, argv, "n", 50));
    const std::int64_t tmax = flag_int(argc, argv, "tmax", 50);
    const std::int64_t edges = flag_int(argc, argv, "edges", n / 2);
    Graph g = random_bipartite_edges(n, n, edges, rng);
    std::vector<std::vector<std::int64_t>> times(2,
                                                 std::vector<std::int64_t>(2 * static_cast<std::size_t>(n)));
    for (auto& row : times) {
      for (auto& x : row) x = rng.uniform_int(0, tmax);
    }
    write_instance(std::cout, make_unrelated_instance(std::move(times), std::move(g)));
    return 0;
  }
  std::cerr << "unknown family '" << family << "'\n";
  return usage();
}

// ------------------------------------------------------------------- eval ---

int cmd_eval(int argc, char** argv) {
  if (argc < 4) return usage();
  const ParsedInstance parsed = read_instance(argv[2]);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.error << "\n";
    return 1;
  }
  std::ifstream sched_file(argv[3]);
  std::string error;
  const auto schedule = parse_schedule(sched_file, &error);
  if (!schedule.has_value()) {
    std::cerr << "schedule parse error: " << error << "\n";
    return 1;
  }
  if (parsed.uniform.has_value()) {
    const auto status = validate(*parsed.uniform, *schedule);
    std::cout << "status: " << to_string(status) << "\n";
    if (status != ScheduleStatus::kValid) return 1;
    std::cout << "makespan: " << makespan(*parsed.uniform, *schedule).to_string() << "\n";
    std::cout << "lower_bound: " << lower_bound(*parsed.uniform).to_string() << "\n";
    return 0;
  }
  const auto status = validate(*parsed.unrelated, *schedule);
  std::cout << "status: " << to_string(status) << "\n";
  if (status != ScheduleStatus::kValid) return 1;
  std::cout << "makespan: " << makespan(*parsed.unrelated, *schedule) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A closed stdio fd would be handed to the next descriptor the program
  // opens (an epoll fd, a socket) and then be read or written as stdio: park
  // /dev/null on it instead, so a closed stdin reads as EOF.
  for (int fd = STDIN_FILENO; fd <= STDERR_FILENO; ++fd) {
    if (::fcntl(fd, F_GETFD) < 0) ::open("/dev/null", O_RDWR);
  }
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "solve") return cmd_solve(argc, argv);
  if (command == "batch") return cmd_batch(argc, argv);
  if (command == "serve") return cmd_serve(argc, argv);
  if (command == "route") return cmd_route(argc, argv);
  if (command == "client") return cmd_client(argc, argv);
  if (command == "metrics") return cmd_metrics(argc, argv);
  if (command == "sim") return cmd_sim(argc, argv);
  if (command == "stats") return cmd_stats(argc, argv);
  if (command == "list-algs") return cmd_list_algs(argc, argv);
  if (command == "gen") return cmd_gen(argc, argv);
  if (command == "eval") return cmd_eval(argc, argv);
  return usage();
}
