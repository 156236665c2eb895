#include "engine/registry.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/alg_random.hpp"
#include "core/alg_random_balanced.hpp"
#include "core/alg_sqrt.hpp"
#include "core/baselines.hpp"
#include "core/complete_bipartite_exact.hpp"
#include "core/exact_bb.hpp"
#include "core/q2_general.hpp"
#include "core/q2_unit_exact.hpp"
#include "core/r2_algorithms.hpp"
#include "sched/list_schedule.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace bisched::engine {

namespace {

// Node budget for the branch-and-bound oracle when invoked through the
// engine: `auto` must never hang, so exhaustion surfaces as a solver error
// (the registry marks "exact" may_fail) and the portfolio falls through.
constexpr std::uint64_t kEngineBbNodeBudget = 20'000'000;

// The FPTAS solvers' answer when their one DP pass would not fit its size
// guard (r2_fptas): a failure, so the portfolio falls through to alg4.
constexpr const char* kFptasTableTooLarge = "FPTAS DP table too large; raise eps";

using UniformFn = std::function<SolveResult(const UniformInstance&, const SolveOptions&)>;
using UnrelatedFn = std::function<SolveResult(const UnrelatedInstance&, const SolveOptions&)>;
using AdmitsFn = std::function<bool(const InstanceProfile&, std::string*)>;

SolveResult success(Schedule schedule, Rational cmax) {
  SolveResult r;
  r.ok = true;
  r.schedule = std::move(schedule);
  r.cmax = cmax;
  return r;
}

SolveResult failure(std::string error) {
  SolveResult r;
  r.error = std::move(error);
  return r;
}

class FunctionSolver final : public Solver {
 public:
  FunctionSolver(std::string name, std::string summary, SolverCapabilities caps,
                 UniformFn uniform, UnrelatedFn unrelated, AdmitsFn admits)
      : name_(std::move(name)),
        summary_(std::move(summary)),
        caps_(std::move(caps)),
        uniform_(std::move(uniform)),
        unrelated_(std::move(unrelated)),
        admits_(std::move(admits)) {}

  const std::string& name() const override { return name_; }
  const std::string& summary() const override { return summary_; }
  const SolverCapabilities& capabilities() const override { return caps_; }

  bool admits(const InstanceProfile& profile, std::string* why) const override {
    return admits_ == nullptr || admits_(profile, why);
  }

  SolveResult solve(const UniformInstance& inst, const SolveOptions& options) const override {
    if (uniform_ == nullptr) return stamp(Solver::solve(inst, options), 0);
    if (past_deadline(options)) return stamp(deadline_failure(), 0);
    Timer timer;
    SolveResult r = uniform_(inst, options);
    return stamp(std::move(r), timer.millis());
  }

  SolveResult solve(const UnrelatedInstance& inst,
                    const SolveOptions& options) const override {
    if (unrelated_ == nullptr) return stamp(Solver::solve(inst, options), 0);
    if (past_deadline(options)) return stamp(deadline_failure(), 0);
    Timer timer;
    SolveResult r = unrelated_(inst, options);
    return stamp(std::move(r), timer.millis());
  }

 private:
  static bool past_deadline(const SolveOptions& options) {
    return options.deadline != std::chrono::steady_clock::time_point::max() &&
           std::chrono::steady_clock::now() >= options.deadline;
  }

  static SolveResult deadline_failure() {
    return failure("deadline exceeded before solver started");
  }
  SolveResult stamp(SolveResult r, double wall_ms) const {
    r.solver = name_;
    r.guarantee = caps_.guarantee_label;
    r.wall_ms = wall_ms;
    return r;
  }

  std::string name_;
  std::string summary_;
  SolverCapabilities caps_;
  UniformFn uniform_;
  UnrelatedFn unrelated_;
  AdmitsFn admits_;
};

void add_solver(SolverRegistry& reg, std::string name, std::string summary,
                SolverCapabilities caps, UniformFn uniform, UnrelatedFn unrelated = nullptr,
                AdmitsFn admits = nullptr) {
  reg.add(std::make_unique<FunctionSolver>(std::move(name), std::move(summary),
                                           std::move(caps), std::move(uniform),
                                           std::move(unrelated), std::move(admits)));
}

SolverCapabilities caps(unsigned models, GraphClassId graph, Guarantee guarantee,
                        std::string label) {
  SolverCapabilities c;
  c.models = models;
  c.graph = graph;
  c.guarantee = guarantee;
  c.guarantee_label = std::move(label);
  return c;
}

void register_builtin(SolverRegistry& reg) {
  // --- the paper's algorithm suite -----------------------------------------
  add_solver(reg, "alg1",
             "Algorithm 1 (Thm 9): sqrt(sum p)-approx for Q|G=bipartite|Cmax",
             caps(kModelUniform, kGraphBipartite, Guarantee::kSqrtApprox,
                  "sqrt(sum p)"),
             [](const UniformInstance& inst, const SolveOptions&) {
               auto r = alg1_sqrt_approx(inst);
               return success(std::move(r.schedule), r.cmax);
             });

  add_solver(reg, "alg2",
             "Algorithm 2 (Thm 19): inequitable 2-coloring + prefix fill",
             caps(kModelUniform, kGraphBipartite, Guarantee::kHeuristic,
                  "additive whp on G(n,n,p)"),
             [](const UniformInstance& inst, const SolveOptions&) {
               auto r = alg2_random_bipartite(inst);
               return success(std::move(r.schedule), r.cmax);
             });

  add_solver(reg, "alg2b", "Algorithm 2 with the balanced isolated-job extension",
             caps(kModelUniform, kGraphBipartite, Guarantee::kHeuristic,
                  "additive whp on G(n,n,p)"),
             [](const UniformInstance& inst, const SolveOptions&) {
               auto r = alg2_balanced(inst);
               return success(std::move(r.schedule), r.cmax);
             });

  {
    SolverCapabilities c = caps(kModelUnrelated, kGraphBipartite,
                                Guarantee::kTwoApprox, "2");
    c.min_machines = 2;
    c.max_machines = 2;
    add_solver(reg, "alg4", "Algorithm 4 (Thm 21): O(n) 2-approx for R2|G=bipartite|Cmax",
               std::move(c), nullptr,
               [](const UnrelatedInstance& inst, const SolveOptions&) {
                 auto r = r2_two_approx(inst);
                 return success(std::move(r.schedule), Rational(r.cmax));
               });
  }

  {
    SolverCapabilities c = caps(kModelUnrelated, kGraphBipartite, Guarantee::kFptas,
                                "1+eps");
    c.min_machines = 2;
    c.max_machines = 2;
    c.may_fail = true;  // DP table past the size guard
    add_solver(reg, "alg5", "Algorithm 5 (Thm 22): FPTAS for R2|G=bipartite|Cmax",
               std::move(c), nullptr,
               [](const UnrelatedInstance& inst, const SolveOptions& options) {
                 if (!(options.eps > 0)) {
                   return failure("alg5 requires eps > 0");
                 }
                 auto r = r2_fptas_bipartite(inst, options.eps);
                 if (!r.has_value()) return failure(kFptasTableTooLarge);
                 return success(std::move(r->schedule), Rational(r->cmax));
               });
  }

  // --- exact routines ------------------------------------------------------
  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite, Guarantee::kExact,
                                "exact (Thm 4 DP)");
    c.min_machines = 2;
    c.max_machines = 2;
    c.unit_jobs_only = true;
    c.max_jobs = 200'000;  // split DP bitset budget
    add_solver(reg, "q2exact", "Theorem 4: exact DP for Q2 with unit jobs",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = q2_unit_exact_dp(inst);
                 return success(std::move(r.schedule), r.cmax);
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphCompleteBipartite,
                                Guarantee::kExact, "exact (capacity DP)");
    c.unit_jobs_only = true;
    add_solver(reg, "kab", "Exact routine for Q|G=complete bipartite, unit jobs|Cmax",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = solve_complete_bipartite_instance(inst);
                 return success(std::move(r.schedule), r.cmax);
               },
               nullptr,
               [](const InstanceProfile& profile, std::string* why) {
                 const double dp =
                     (static_cast<double>(profile.machines) + 1) *
                     (static_cast<double>(profile.jobs) + 1);
                 if (dp <= 2.5e8) return true;
                 if (why != nullptr) *why = "machines x jobs DP too large";
                 return false;
               });
  }

  {
    SolverCapabilities c = caps(kModelUnrelated, kGraphBipartite, Guarantee::kExact,
                                "exact (reduction + DP)");
    c.min_machines = 2;
    c.max_machines = 2;
    add_solver(reg, "r2exact",
               "Exact optimum for R2|G=bipartite|Cmax (Algorithm 3 reduction + DP)",
               std::move(c), nullptr,
               [](const UnrelatedInstance& inst, const SolveOptions&) {
                 auto r = r2_exact_bipartite(inst);
                 return success(std::move(r.schedule), Rational(r.cmax));
               },
               [](const InstanceProfile& profile, std::string* why) {
                 // One DP pass, O(n * greedy makespan) time and bits; total_work
                 // bounds the greedy makespan from above.
                 const double state = (static_cast<double>(profile.jobs) + 1) *
                                      (static_cast<double>(profile.total_work) + 1);
                 if (state <= 2.5e8) return true;
                 if (why != nullptr) *why = "jobs x makespan-bound DP too large";
                 return false;
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite, Guarantee::kExact,
                                "exact (load DP)");
    c.min_machines = 2;
    c.max_machines = 2;
    add_solver(reg, "q2dp", "Exact pseudo-polynomial DP for Q2 with general jobs",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = q2_weighted_exact_dp(inst);
                 return success(std::move(r.schedule), r.cmax);
               },
               nullptr,
               [](const InstanceProfile& profile, std::string* why) {
                 if (profile.total_work <= (INT64_C(1) << 26)) return true;
                 if (why != nullptr) *why = "load DP sized for sum p <= 2^26";
                 return false;
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite, Guarantee::kExact,
                                "exact (via R2 reduction)");
    c.min_machines = 2;
    c.max_machines = 2;
    add_solver(reg, "q2r2exact",
               "Exact optimum for Q2 via the R2 embedding + Algorithm-3 reduction",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = q2_exact_via_r2(inst);
                 return success(std::move(r.schedule), r.cmax);
               },
               nullptr,
               [](const InstanceProfile& profile, std::string* why) {
                 // The embedding scales times by lcm(s1, s2); the R2 DP is
                 // O(n * scaled greedy makespan) and total_work * lcm bounds
                 // that makespan from above.
                 const double scaled = static_cast<double>(profile.total_work) *
                                       static_cast<double>(std::max<std::int64_t>(
                                           1, profile.speed_lcm));
                 const double state =
                     (static_cast<double>(profile.jobs) + 1) * (scaled + 1);
                 if (state <= 2.5e8) return true;
                 if (why != nullptr) *why = "jobs x speed-scaled makespan DP too large";
                 return false;
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite, Guarantee::kExact,
                                "exact (Thm 4 via FPTAS)");
    c.min_machines = 2;
    c.max_machines = 2;
    c.unit_jobs_only = true;
    // The proof route runs O(n) FPTAS invocations at eps = 1/(n+1) — O(n^3)
    // overall; bounded so `auto` never routes a huge corpus through it (the
    // split DP `q2exact` outranks it by registration order anyway).
    c.max_jobs = 400;
    c.may_fail = true;  // DP table past the size guard
    add_solver(reg, "q2unitfptas",
               "Theorem 4 proof route: unit-job Q2 optimum by FPTAS feasibility probes",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = q2_unit_exact_via_fptas(inst);
                 if (!r.has_value()) return failure(kFptasTableTooLarge);
                 return success(std::move(r->schedule), r->cmax);
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite, Guarantee::kFptas,
                                "1+eps");
    c.min_machines = 2;
    c.max_machines = 2;
    c.may_fail = true;  // DP table past the size guard
    add_solver(reg, "q2fptas",
               "Algorithm 5 on the speed-scaled R2 embedding: FPTAS for Q2|G=bipartite|Cmax",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions& options) {
                 if (!(options.eps > 0)) {
                   return failure("q2fptas requires eps > 0");
                 }
                 auto r = q2_fptas(inst, options.eps);
                 if (!r.has_value()) return failure(kFptasTableTooLarge);
                 return success(std::move(r->schedule), r->cmax);
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform | kModelUnrelated, kGraphAny,
                                Guarantee::kExact, "exact (B&B)");
    c.max_jobs = 64;
    c.may_fail = true;  // infeasible instances, node-budget exhaustion
    add_solver(reg, "exact", "Branch-and-bound oracle for small instances (n <= 64)",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions& options) {
                 auto r = exact_uniform_bb(inst, kEngineBbNodeBudget, options.deadline);
                 // A truncated search may hold a valid incumbent, but this
                 // solver is advertised "exact": claiming an unproven
                 // schedule under that label would poison downstream rows,
                 // so truncation is a failure and the portfolio falls
                 // through to guaranteed solvers.
                 if (r.truncated) {
                   return failure("branch-and-bound budget exhausted before "
                                  "proving optimality");
                 }
                 if (!r.feasible) {
                   return failure("infeasible (conflict graph needs more machines)");
                 }
                 return success(std::move(r.schedule), r.cmax);
               },
               [](const UnrelatedInstance& inst, const SolveOptions& options) {
                 auto r = exact_unrelated_bb(inst, kEngineBbNodeBudget, options.deadline);
                 if (r.truncated) {
                   return failure("branch-and-bound budget exhausted before "
                                  "proving optimality");
                 }
                 if (!r.feasible) {
                   return failure("infeasible (conflict graph needs more machines)");
                 }
                 return success(std::move(r.schedule), Rational(r.cmax));
               });
  }

  // --- baselines -----------------------------------------------------------
  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite,
                                Guarantee::kHeuristic, "heuristic");
    c.min_machines = 2;
    add_solver(reg, "split", "Baseline: fastest machine vs. rest by 2-coloring",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = two_color_split(inst);
                 return success(std::move(r.schedule), r.cmax);
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphBipartite,
                                Guarantee::kHeuristic, "heuristic");
    c.min_machines = 2;
    add_solver(reg, "proportional", "Baseline: capacity-proportional machine split",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 auto r = class_proportional_split(inst);
                 return success(std::move(r.schedule), r.cmax);
               });
  }

  {
    SolverCapabilities c = caps(kModelUniform, kGraphAny, Guarantee::kHeuristic,
                                "heuristic");
    c.may_fail = true;  // can dead-end on adversarial instances
    add_solver(reg, "greedy", "Baseline: conflict-aware LPT (any conflict graph)",
               std::move(c),
               [](const UniformInstance& inst, const SolveOptions&) {
                 Schedule s;
                 if (!greedy_conflict_lpt(inst, s)) {
                   return failure("greedy dead end (no conflict-free machine for some job)");
                 }
                 const Rational cmax = makespan(inst, s);
                 return success(std::move(s), cmax);
               });
  }
}

}  // namespace

void SolverRegistry::add(std::unique_ptr<Solver> solver) {
  BISCHED_CHECK(solver != nullptr, "null solver");
  BISCHED_CHECK(find(solver->name()) == nullptr,
                "duplicate solver name '" + solver->name() + "'");
  solvers_.push_back(std::move(solver));
}

const Solver* SolverRegistry::find(std::string_view name) const {
  for (const auto& s : solvers_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<const Solver*> SolverRegistry::solvers() const {
  std::vector<const Solver*> out;
  out.reserve(solvers_.size());
  for (const auto& s : solvers_) out.push_back(s.get());
  return out;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& s : solvers_) out.push_back(s->name());
  return out;
}

std::vector<const Solver*> SolverRegistry::applicable(const InstanceProfile& profile) const {
  std::vector<const Solver*> out;
  for (const auto& s : solvers_) {
    if (is_applicable(s->capabilities(), profile, nullptr) && s->admits(profile, nullptr)) {
      out.push_back(s.get());
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Solver* a, const Solver* b) {
    const auto key = [](const Solver* s) {
      return std::pair(guarantee_rank(s->capabilities().guarantee),
                       s->capabilities().may_fail ? 1 : 0);
    };
    return key(a) < key(b);
  });
  return out;
}

const SolverRegistry& SolverRegistry::builtin() {
  static const SolverRegistry* registry = [] {
    auto* reg = new SolverRegistry;
    register_builtin(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace bisched::engine
