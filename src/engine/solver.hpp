// The engine's uniform solver abstraction.
//
// The paper contributes a *family* of algorithms, each correct only under
// structural preconditions (machine model, machine count, unit vs. general
// jobs, conflict-graph class). The engine makes those preconditions explicit
// data: every algorithm is wrapped as a `Solver` carrying declarative
// `SolverCapabilities`, an instance is summarized once into an
// `InstanceProfile` (graph structure via the engine/graph_classes lattice),
// and `is_applicable` decides eligibility *before* the call — so the
// library's BISCHED_CHECK aborts become unreachable through the engine, and
// the `auto` portfolio (engine/portfolio.hpp) can rank eligible solvers by
// guarantee.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "engine/graph_classes.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/rational.hpp"

namespace bisched::engine {

namespace telemetry {
class TraceSpan;
}  // namespace telemetry

// Machine environments a solver accepts, as a mask: the branch-and-bound
// oracle serves both models under one registry name.
enum ModelMask : unsigned {
  kModelUniform = 1u,
  kModelUnrelated = 2u,
};

// Approximation guarantee, strongest first; `guarantee_rank` gives the total
// order the portfolio sorts by.
enum class Guarantee {
  kExact,
  kFptas,       // (1 + eps) for every eps > 0
  kTwoApprox,   // Algorithm 4, Theorem 21
  kSqrtApprox,  // Algorithm 1, Theorem 9: sqrt(sum p_j)
  kHeuristic,   // no worst-case bound (baselines, Algorithm 2 on general G)
};

int guarantee_rank(Guarantee g);
const char* to_string(Guarantee g);

// One-pass structural summary of an instance; computed by `probe`, consumed
// by applicability checks. Probing costs O(|V| + |E| log) (a BFS 2-coloring
// plus the lattice's twin-class scan).
struct InstanceProfile {
  unsigned model = 0;  // exactly one ModelMask bit
  int jobs = 0;
  int machines = 0;
  std::int64_t num_edges = 0;
  bool unit_jobs = false;  // uniform model: all p_j == 1
  // Bit i = the conflict graph belongs to class i of
  // GraphClassLattice::builtin(); filled by probe() via the detector
  // registry and closed under subsumption (a complete-bipartite graph also
  // has the bipartite, complete-multipartite, and any bits set).
  std::uint64_t graph_classes = 0;
  // Uniform: sum p_j. Unrelated: sum_j max_i t_ij — an upper bound on the
  // makespan of any schedule, used to budget pseudo-polynomial DPs.
  std::int64_t total_work = 0;
  // Uniform two-machine instances only: lcm(s_1, s_2), the scale factor of
  // the Q2 -> R2 embedding (instance.hpp's uniform_as_unrelated); 0
  // otherwise. Saturates at INT64_MAX on overflow so admits guards that
  // multiply by it reject instead of wrapping.
  std::int64_t speed_lcm = 0;

  bool has_class(GraphClassId id) const {
    return id >= 0 && id < 64 && ((graph_classes >> id) & 1u) != 0;
  }
};

InstanceProfile probe(const UniformInstance& inst);
InstanceProfile probe(const UnrelatedInstance& inst);

struct SolverCapabilities {
  unsigned models = 0;         // ModelMask bits
  int min_machines = 1;
  int max_machines = 0;        // 0 = unbounded
  int max_jobs = 0;            // 0 = unbounded
  bool unit_jobs_only = false;
  // Required conflict-graph class, as a lattice id. An instance qualifies
  // when its detected class set contains this class — so a solver declared
  // for complete-multipartite graphs automatically accepts complete-
  // bipartite instances (subsumption lives in the lattice, not here).
  GraphClassId graph = kGraphAny;
  Guarantee guarantee = Guarantee::kHeuristic;
  std::string guarantee_label;  // human-readable, e.g. "1+eps", "sqrt(sum p)"
  // True when the solver may fail at runtime even on applicable instances
  // (greedy dead ends, branch-and-bound budget exhaustion / infeasibility,
  // an FPTAS table past its size guard).
  // `auto` prefers solvers that cannot fail at equal guarantee strength.
  bool may_fail = false;
};

struct SolveOptions {
  double eps = 0.1;       // FPTAS precision (alg5)
  bool run_all = false;   // portfolio: run every applicable solver, keep best
  double budget_ms = 0;   // run_all wall-clock budget; 0 = unlimited
  // Absolute deadline for a single Solver::solve call; max() = none. run_all
  // derives it from budget_ms so the budget binds *inside* a solver (the
  // branch-and-bound oracle polls it), not just between solvers. A solver
  // invoked past its deadline fails fast instead of starting.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  // When non-null, the dispatch layer records per-solver child spans here
  // (engine/telemetry/trace.hpp) — the portfolio sets it to the request's
  // `solve` span. Borrowed; single-request lifetime; never part of the
  // result-cache key (engine/store/codec.hpp derives keys from the solve
  // parameters only).
  telemetry::TraceSpan* trace = nullptr;
};

struct SolveResult {
  bool ok = false;
  std::string error;      // nonempty iff !ok
  std::string solver;     // registry name of the solver that produced this
  std::string guarantee;  // its guarantee label
  Schedule schedule;
  Rational cmax;          // exact makespan; integral for unrelated instances
  double wall_ms = 0;
  int solvers_tried = 1;  // > 1 only in run_all mode
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual const std::string& name() const = 0;
  virtual const std::string& summary() const = 0;
  virtual const SolverCapabilities& capabilities() const = 0;

  // Per-solver resource guard beyond the declarative fields — e.g. the
  // pseudo-polynomial DPs bound their state size by profile.total_work.
  // Returns false and explains in *why (if non-null) when the instance is
  // structurally eligible but too large for this solver.
  virtual bool admits(const InstanceProfile& profile, std::string* why) const {
    (void)profile;
    (void)why;
    return true;
  }

  // Exactly the overloads for the models in capabilities().models are
  // meaningful; the default returns a "wrong machine model" error.
  virtual SolveResult solve(const UniformInstance& inst, const SolveOptions& options) const;
  virtual SolveResult solve(const UnrelatedInstance& inst, const SolveOptions& options) const;
};

// Declarative applicability: capabilities vs. profile (model, machine count,
// job count, unit jobs, graph class — plus the blanket rule that a
// single-machine instance with conflicts is infeasible for every solver that
// cannot report failure). Does NOT consult Solver::admits; callers that have
// a Solver should check both.
bool is_applicable(const SolverCapabilities& caps, const InstanceProfile& profile,
                   std::string* why);

}  // namespace bisched::engine
