#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/alg_sqrt.hpp"
#include "core/exact_bb.hpp"
#include "core/r2_algorithms.hpp"
#include "engine/api.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "engine/store/warm_state.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"
#include "sched/schedule.hpp"
#include "wire.hpp"

namespace perfbench {

namespace eng = bisched::engine;

// ---------------------------------------------------------------- SpanLog ---

int SpanLog::begin(const std::string& name, std::uint64_t rid, int parent) {
  Span s;
  s.name = name;
  s.rid = rid;
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { at(id).end_ns = now_ns(); }

std::vector<double> SpanLog::self_ms() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, spans_[i].end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) / 1e6;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<double> self = self_ms();
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"rid\": %llu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f, "
                  "\"failed\": %s, \"bytes\": %lld, \"detail\": \"%s\"}\n",
                  i, static_cast<unsigned long long>(s.rid), s.parent, s.name.c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - t0) / 1e3, self[i] * 1e3,
                  s.failed ? "true" : "false", static_cast<long long>(s.bytes),
                  s.detail.c_str());
    out << buf;
  }
  return static_cast<bool>(out);
}

std::string layer_table(const SpanLog& log) {
  struct Row {
    std::size_t count = 0;
    double busy = 0;
    double self = 0;
    std::size_t failed = 0;
    std::size_t calib = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = log.self_ms();
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    Row& r = rows[s.name];
    ++r.count;
    r.busy += s.ms();
    r.self += self[i];
    if (s.failed) ++r.failed;
    if (s.detail == "calib") ++r.calib;
  }
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-22s %8s %12s %12s %8s %6s\n", "span", "count", "busy_ms",
                "self_ms", "failed", "calib");
  out << buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-22s %8zu %12.3f %12.3f %8zu %6zu\n", name.c_str(), r.count,
                  r.busy, r.self, r.failed, r.calib);
    out << buf;
  }
  return out.str();
}

// ----------------------------------------------------------------- ledger ---

namespace {

// The engine's node budget for the "exact" solver (engine/registry.cpp).
constexpr std::uint64_t kEngineBbNodeBudget = 20'000'000;

template <typename Inst>
void time_kernel(const std::string& solver, const Inst& inst, std::uint64_t rid, int parent,
                 SpanLog& log) {
  constexpr bool kUniform = std::is_same_v<Inst, bisched::UniformInstance>;
  if (solver == "exact") {
    const int id = log.begin("core.exact_bb", rid, parent);
    bool fell_through = false;
    if constexpr (kUniform) {
      const auto r = bisched::exact_uniform_bb(inst, kEngineBbNodeBudget);
      fell_through = r.truncated || !r.feasible;
    } else {
      const auto r = bisched::exact_unrelated_bb(inst, kEngineBbNodeBudget);
      fell_through = r.truncated || !r.feasible;
    }
    log.end(id);
    log.at(id).failed = fell_through;
  } else if (solver == "alg1") {
    if constexpr (kUniform) {
      const int id = log.begin("core.alg1", rid, parent);
      (void)bisched::alg1_sqrt_approx(inst);
      log.end(id);
    }
  } else if (solver == "r2exact") {
    if constexpr (!kUniform) {
      const int id = log.begin("core.r2_exact", rid, parent);
      (void)bisched::r2_exact_bipartite(inst);
      log.end(id);
    }
  }
}

// Each kernel the portfolio tried before (and including) `winner`, called
// directly in the portfolio's order.
template <typename Inst>
void replay_kernels(const Inst& inst, const eng::InstanceProfile& profile,
                    const std::string& winner, std::uint64_t rid, int parent, SpanLog& log) {
  for (const eng::Solver* s : eng::SolverRegistry::builtin().applicable(profile)) {
    time_kernel(s->name(), inst, rid, parent, log);
    if (s->name() == winner) break;
  }
}

std::string makespan_of(const GenInstance& g, const bisched::Schedule& s,
                        bisched::ScheduleStatus* status) {
  if (g.uniform.has_value()) {
    *status = bisched::validate(*g.uniform, s);
    return *status == bisched::ScheduleStatus::kValid
               ? bisched::makespan(*g.uniform, s).to_string()
               : "";
  }
  *status = bisched::validate(*g.unrelated, s);
  return *status == bisched::ScheduleStatus::kValid
             ? std::to_string(bisched::makespan(*g.unrelated, s))
             : "";
}

eng::SolveRequest inline_request(const std::string& id, const std::string& text) {
  eng::SolveRequest req;
  req.id = id;
  req.inline_text = text;
  req.has_inline_text = true;
  return req;
}

// One request decomposed into its layers on `warm`; returns the winning
// solver when the request path solved ("" on a result hit).
template <typename Inst>
std::string decompose(const Inst& inst, eng::WarmState& warm, std::uint64_t rid, int root,
                      SpanLog& log) {
  const auto& registry = eng::SolverRegistry::builtin();
  const eng::SolveOptions options;
  int id = log.begin("sched.hash", rid, root);
  (void)bisched::instance_hash(inst);
  log.end(id);
  id = log.begin("engine.probe", rid, root);
  (void)eng::probe(inst);
  log.end(id);

  id = log.begin("engine.cache.profile", rid, root);
  const eng::CachedProfile cached = warm.profiles().profile(inst);
  log.end(id);
  log.at(id).detail = cached.hit() ? "hit" : "miss";
  const auto key = eng::make_result_key(cached.hash, "auto", options);
  id = log.begin("engine.cache.result", rid, root);
  eng::CacheTier tier = eng::CacheTier::kMiss;
  const auto hit = warm.results().lookup(key, &tier);
  log.end(id);
  log.at(id).detail = hit.has_value() ? "hit" : "miss";
  if (hit.has_value()) return "";

  id = log.begin("engine.solve", rid, root);
  const eng::SolveResult fresh = eng::solve_auto(registry, inst, options, cached.profile);
  log.end(id);
  log.at(id).detail = fresh.solver;
  log.at(id).failed = !fresh.ok;
  id = log.begin("engine.cache.store", rid, root);
  warm.results().store(key, fresh);
  log.end(id);
  return fresh.solver;
}

// The miss cost of an instance whose request path hit: solve_auto alone.
template <typename Inst>
std::string solve_root(const Inst& inst, std::uint64_t rid, SpanLog& log) {
  const eng::InstanceProfile profile = eng::probe(inst);
  const int id = log.begin("engine.solve", rid);
  const eng::SolveResult r =
      eng::solve_auto(eng::SolverRegistry::builtin(), inst, eng::SolveOptions{}, profile);
  log.end(id);
  log.at(id).detail = r.solver;
  log.at(id).failed = !r.ok;
  return r.solver;
}

template <typename Inst>
void core_root(const Inst& inst, const std::string& winner, std::uint64_t rid, SpanLog& log) {
  const int root = log.begin("core", rid);
  replay_kernels(inst, eng::probe(inst), winner, rid, root, log);
  log.end(root);
}

}  // namespace

void run_ledger(const Workload& w, std::uint64_t first, double seconds, std::size_t min_requests,
                std::size_t max_requests, const WireMakespan& wire, SpanLog& log,
                LedgerCheck* check) {
  const auto& registry = eng::SolverRegistry::builtin();
  const eng::SolveOptions defaults;
  eng::WarmState api_state;
  eng::WarmState parts_state;
  for (std::size_t i = 0; i < w.warmup().size(); ++i) {
    const auto req = inline_request("w" + std::to_string(i), w.warmup()[i].text);
    (void)eng::run_request(registry, api_state, req, "auto", defaults);
    (void)eng::run_request(registry, parts_state, req, "auto", defaults);
  }

  std::set<std::uint64_t> seen;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t k = first; k < first + max_requests; ++k) {
    if (k >= first + min_requests && now_ns() >= deadline) break;
    const GenInstance g = w.instance(k);
    const std::string rid_label = "k" + std::to_string(k);

    int id = log.begin("api.request", k);
    eng::SolveResult full;
    const eng::SolveResponse resp = eng::run_request(
        registry, api_state, inline_request(rid_label, g.text), "auto", defaults, &full);
    log.end(id);
    log.at(id).detail = eng::response_result_label(resp);
    log.at(id).failed = !resp.ok;

    ++check->checked;
    bisched::ScheduleStatus status = bisched::ScheduleStatus::kValid;
    const std::string own = resp.ok ? makespan_of(g, full.schedule, &status) : "";
    const std::string* on_wire = wire(k);
    if (!resp.ok) {
      check->failures.push_back(rid_label + ": in-process request failed: " + resp.error);
    } else if (status != bisched::ScheduleStatus::kValid) {
      check->failures.push_back(rid_label + ": schedule invalid: " + bisched::to_string(status));
    } else if (own != resp.makespan || (on_wire != nullptr && *on_wire != own)) {
      check->failures.push_back(rid_label + ": makespan() " + own + " vs reply " + resp.makespan +
                                " vs wire " + (on_wire != nullptr ? *on_wire : "-"));
    }

    const int root = log.begin("request", k);
    id = log.begin("io.parse", k, root);
    std::istringstream text(g.text);
    const bisched::ParsedInstance parsed = bisched::parse_instance(text);
    log.end(id);
    log.at(id).bytes = static_cast<std::int64_t>(g.text.size());
    log.at(id).failed = !parsed.ok();
    std::string winner;
    if (parsed.uniform.has_value()) {
      winner = decompose(*parsed.uniform, parts_state, k, root, log);
    } else if (parsed.unrelated.has_value()) {
      winner = decompose(*parsed.unrelated, parts_state, k, root, log);
    }
    id = log.begin("api.render", k, root);
    (void)eng::encode_response_json(resp);
    log.end(id);
    log.end(root);

    if (!seen.insert(w.key(k)).second) continue;
    if (g.uniform.has_value()) {
      if (winner.empty()) winner = solve_root(*g.uniform, k, log);
      core_root(*g.uniform, winner, k, log);
    } else {
      if (winner.empty()) winner = solve_root(*g.unrelated, k, log);
      core_root(*g.unrelated, winner, k, log);
    }
  }

  // Calibration for kernels this workload never reaches.
  std::set<std::string> reached;
  for (const Span& s : log.spans()) reached.insert(s.name);
  const struct {
    const char* span;
    Family family;
    const char* solver;
  } kernels[] = {{"core.exact_bb", Family::kSmallUniform, "exact"},
                 {"core.alg1", Family::kGilbert, "alg1"},
                 {"core.r2_exact", Family::kR2, "r2exact"}};
  std::uint64_t calib_rid = UINT64_MAX;
  for (const auto& kernel : kernels) {
    if (reached.count(kernel.span) != 0) continue;
    for (const GenInstance& g : w.calibration(kernel.family, 3)) {
      const int root = log.begin("calibration", calib_rid);
      const std::size_t timed_from = log.spans().size();
      if (g.uniform.has_value()) {
        time_kernel(kernel.solver, *g.uniform, calib_rid, root, log);
      } else {
        time_kernel(kernel.solver, *g.unrelated, calib_rid, root, log);
      }
      for (std::size_t i = timed_from; i < log.spans().size(); ++i) {
        log.at(static_cast<int>(i)).detail = "calib";
      }
      log.end(root);
      --calib_rid;
    }
  }
}

}  // namespace perfbench
