// Auto-dispatch portfolio over a SolverRegistry.
//
// `solve_auto` probes the instance once, ranks the applicable solvers by
// guarantee strength (exact < fptas < 2-approx < sqrt < heuristic), and runs
// the best one; solvers that can fail at runtime (greedy, branch-and-bound)
// are only reached when everything stronger has failed. With
// `options.run_all` it instead runs every applicable solver — newest-best
// kept by exact makespan comparison — optionally under a wall-clock budget
// (`options.budget_ms`): the budget is converted into a
// `SolveOptions::deadline` that each solver receives, so it binds inside a
// long-running solver (the branch-and-bound oracle polls it) as well as
// between solvers. The first solver always starts, so run_all never returns
// empty-handed on a solvable instance unless that solver itself hits the
// deadline.
//
// `solve_named` runs one specific solver, after checking applicability, so a
// mismatched request returns a diagnosable error instead of tripping the
// library's BISCHED_CHECK aborts.
//
// Both paths 2-colour the instance itself, once per request, before the
// first solver whose graph class implies bipartiteness runs: a cached
// profile is keyed by a 64-bit hash that can collide, so its class bits may
// describe another graph. On an odd cycle those solvers fail with "conflict
// graph is not bipartite" instead of aborting the process.
//
// Every entry point has a sibling overload taking a precomputed
// `InstanceProfile` — the hot batch/serve paths feed profiles from the
// warm state's profile cache (engine/store/warm_state.hpp) so an instance
// seen before is never re-probed.
// The profile MUST describe `inst` (i.e. come from `probe(inst)` or the
// cache); the three-argument overloads probe internally.
#pragma once

#include <string_view>

#include "engine/registry.hpp"
#include "engine/solver.hpp"

namespace bisched::engine {

SolveResult solve_auto(const SolverRegistry& registry, const UniformInstance& inst,
                       const SolveOptions& options);
SolveResult solve_auto(const SolverRegistry& registry, const UniformInstance& inst,
                       const SolveOptions& options, const InstanceProfile& profile);
SolveResult solve_auto(const SolverRegistry& registry, const UnrelatedInstance& inst,
                       const SolveOptions& options);
SolveResult solve_auto(const SolverRegistry& registry, const UnrelatedInstance& inst,
                       const SolveOptions& options, const InstanceProfile& profile);

SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UniformInstance& inst, const SolveOptions& options);
SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UniformInstance& inst, const SolveOptions& options,
                        const InstanceProfile& profile);
SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UnrelatedInstance& inst, const SolveOptions& options);
SolveResult solve_named(const SolverRegistry& registry, std::string_view name,
                        const UnrelatedInstance& inst, const SolveOptions& options,
                        const InstanceProfile& profile);

}  // namespace bisched::engine
