#include "engine/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "engine/graph_classes.hpp"
#include "engine/telemetry/trace.hpp"
#include "graph/bipartite.hpp"
#include "util/timer.hpp"

namespace bisched::engine {

namespace {

// The bipartite-only solvers abort on an odd cycle (alg_sqrt, r2_reduction),
// and the profile that admitted them may be a cached one keyed by a 64-bit
// instance hash, which can collide — so its bipartite bit may describe
// another graph. Before the first such solver of a request runs, the
// instance itself is 2-coloured, once; on an odd cycle each of them fails
// cleanly instead, and the portfolio falls through to the rest.
class BipartiteGate {
 public:
  template <typename Instance>
  bool refuses(const Solver& solver, const Instance& inst) {
    if (!GraphClassLattice::builtin().subsumes(kGraphBipartite,
                                               solver.capabilities().graph)) {
      return false;
    }
    if (!bipartite_.has_value()) bipartite_ = bipartition(inst.conflicts).has_value();
    return !*bipartite_;
  }

 private:
  std::optional<bool> bipartite_;
};

// Runs one solver under a child span of options.trace (named after the
// solver — this IS the DP/flow kernel timing), with the span handed down via
// options.trace so deeper layers could attach to it. Failed attempts keep
// their span and annotate the outcome, so a run-all trace shows where the
// budget went, not just who won.
template <typename Instance>
SolveResult timed_solve(const Solver& solver, const Instance& inst,
                        const SolveOptions& options, BipartiteGate& gate) {
  if (gate.refuses(solver, inst)) {
    SolveResult r;
    r.error = "conflict graph is not bipartite";
    r.solver = solver.name();
    r.guarantee = solver.capabilities().guarantee_label;
    return r;
  }
  if (options.trace == nullptr) return solver.solve(inst, options);
  telemetry::TraceSpan* span = options.trace->child(solver.name());
  SolveOptions traced = options;
  traced.trace = span;
  SolveResult r = solver.solve(inst, traced);
  if (!r.ok) span->set_detail("failed");
  span->end();
  return r;
}

template <typename Instance>
SolveResult solve_auto_impl(const SolverRegistry& registry, const Instance& inst,
                            const SolveOptions& options, const InstanceProfile& profile) {
  const auto eligible = registry.applicable(profile);
  if (eligible.empty()) {
    SolveResult r;
    r.error = "no applicable solver (model/machine-count/graph-class mismatch)";
    return r;
  }

  Timer timer;
  SolveOptions per_solver = options;
  if (options.run_all && options.budget_ms > 0) {
    // The budget becomes a hard deadline each solver sees (and the B&B
    // oracle polls); an explicit caller deadline still wins if tighter.
    // Clamped to ~115 days so an absurd --budget-ms cannot overflow the
    // duration cast (UB) into a deadline in the past.
    const double budget_ms = std::min(options.budget_ms, 1e10);
    per_solver.deadline = std::min(
        options.deadline,
        std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(budget_ms)));
  }
  SolveResult best;
  int tried = 0;
  std::string first_error;
  BipartiteGate gate;
  for (const Solver* solver : eligible) {
    if (tried > 0) {
      if (!options.run_all && best.ok) break;  // best-guarantee solver succeeded
      if (options.run_all && options.budget_ms > 0 &&
          std::chrono::steady_clock::now() >= per_solver.deadline) {
        break;
      }
    }
    SolveResult r = timed_solve(*solver, inst, per_solver, gate);
    ++tried;
    if (r.ok && (!best.ok || r.cmax < best.cmax)) {
      best = std::move(r);
    } else if (!r.ok && first_error.empty()) {
      first_error = r.solver + ": " + r.error;
    }
  }
  if (!best.ok) {
    SolveResult r;
    r.error = "every applicable solver failed (first: " + first_error + ")";
    r.solvers_tried = tried;
    return r;
  }
  best.solvers_tried = tried;
  best.wall_ms = timer.millis();
  return best;
}

template <typename Instance>
SolveResult solve_named_impl(const SolverRegistry& registry, std::string_view name,
                             const Instance& inst, const SolveOptions& options,
                             const InstanceProfile& profile) {
  const Solver* solver = registry.find(name);
  SolveResult r;
  if (solver == nullptr) {
    r.error = "unknown solver '" + std::string(name) + "'";
    return r;
  }
  std::string why;
  if (!is_applicable(solver->capabilities(), profile, &why) ||
      !solver->admits(profile, &why)) {
    r.error = "solver '" + std::string(name) + "' is not applicable: " + why;
    return r;
  }
  BipartiteGate gate;
  return timed_solve(*solver, inst, options, gate);
}

}  // namespace

SolveResult solve_auto(const SolverRegistry& registry, const UniformInstance& inst,
                       const SolveOptions& options) {
  return solve_auto_impl(registry, inst, options, probe(inst));
}

SolveResult solve_auto(const SolverRegistry& registry, const UniformInstance& inst,
                       const SolveOptions& options, const InstanceProfile& profile) {
  return solve_auto_impl(registry, inst, options, profile);
}

SolveResult solve_auto(const SolverRegistry& registry, const UnrelatedInstance& inst,
                       const SolveOptions& options) {
  return solve_auto_impl(registry, inst, options, probe(inst));
}

SolveResult solve_auto(const SolverRegistry& registry, const UnrelatedInstance& inst,
                       const SolveOptions& options, const InstanceProfile& profile) {
  return solve_auto_impl(registry, inst, options, profile);
}

SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UniformInstance& inst, const SolveOptions& options) {
  return solve_named_impl(registry, name, inst, options, probe(inst));
}

SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UniformInstance& inst, const SolveOptions& options,
                        const InstanceProfile& profile) {
  return solve_named_impl(registry, name, inst, options, profile);
}

SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UnrelatedInstance& inst, const SolveOptions& options) {
  return solve_named_impl(registry, name, inst, options, probe(inst));
}

SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UnrelatedInstance& inst, const SolveOptions& options,
                        const InstanceProfile& profile) {
  return solve_named_impl(registry, name, inst, options, profile);
}

}  // namespace bisched::engine
