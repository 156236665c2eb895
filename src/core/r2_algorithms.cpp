#include "core/r2_algorithms.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bisched {

R2ScheduleResult r2_two_approx(const UnrelatedInstance& inst) {
  const R2Reduction red = reduce_r2_bipartite(inst);
  std::vector<std::uint8_t> on_m2(red.components.size(), 0);
  for (std::size_t c = 0; c < red.components.size(); ++c) {
    const auto& comp = red.components[c];
    if (comp.forced) continue;
    on_m2[c] = static_cast<std::uint8_t>(comp.reduced.p2 < comp.reduced.p1);
  }
  R2ScheduleResult result;
  result.schedule = reconstruct_r2_schedule(inst, red, on_m2);
  result.cmax = makespan(inst, result.schedule);
  return result;
}

std::optional<R2ScheduleResult> r2_fptas_bipartite(const UnrelatedInstance& inst,
                                                   double eps) {
  BISCHED_CHECK(eps > 0, "eps must be positive");
  const R2ScheduleResult warm = r2_two_approx(inst);
  const std::int64_t t = warm.cmax;
  if (t == 0) return warm;  // every job has zero time everywhere it runs

  const R2Reduction red = reduce_r2_bipartite(inst);

  // Reduced instance: one decision job per non-forced component plus two
  // anchors pinning the base loads. The prohibitive time 3T + 1 exceeds any
  // (1+eps')-approximate makespan the FPTAS can emit for eps' <= ... — the
  // FPTAS output is <= (1+eps) * OPT_reduced <= (1+eps) * T when eps <= 2,
  // and for larger eps the FPTAS's internal upper bound (the greedy schedule,
  // which places anchors correctly) already caps the output at 2*T < 3T + 1.
  std::vector<R2Job> jobs;
  std::vector<std::size_t> component_of_job;  // reduced job -> component index
  for (std::size_t c = 0; c < red.components.size(); ++c) {
    if (red.components[c].forced) continue;
    jobs.push_back(red.components[c].reduced);
    component_of_job.push_back(c);
  }
  const std::int64_t prohibitive = 3 * t + 1;
  const std::size_t anchor1 = jobs.size();
  jobs.push_back({red.base1, prohibitive});
  const std::size_t anchor2 = jobs.size();
  jobs.push_back({prohibitive, red.base2});

  const std::optional<R2Result> fptas = r2_fptas(jobs, eps);
  if (!fptas.has_value()) return std::nullopt;
  const R2Result& solved = *fptas;
  BISCHED_CHECK(solved.on_machine2[anchor1] == 0, "anchor 1 strayed from machine 1");
  BISCHED_CHECK(solved.on_machine2[anchor2] == 1, "anchor 2 strayed from machine 2");

  std::vector<std::uint8_t> on_m2(red.components.size(), 0);
  for (std::size_t idx = 0; idx < component_of_job.size(); ++idx) {
    on_m2[component_of_job[idx]] = solved.on_machine2[idx];
  }
  R2ScheduleResult result;
  result.schedule = reconstruct_r2_schedule(inst, red, on_m2);
  result.cmax = makespan(inst, result.schedule);
  // The reconstruction preserves loads exactly (Theorem 22's argument).
  BISCHED_CHECK(result.cmax == solved.cmax, "reduced/reconstructed makespans differ");
  // Never worse than the warm start.
  if (warm.cmax < result.cmax) return warm;
  return result;
}

std::vector<R2Job> r2_exact_dp_jobs(const R2Reduction& red) {
  // Base loads are pinned with anchors the exact DP will never misplace (any
  // optimum is <= base + extras total).
  std::vector<R2Job> jobs;
  std::int64_t extras_total = 0;
  for (const ReducedComponent& comp : red.components) {
    if (comp.forced) continue;
    jobs.push_back(comp.reduced);
    extras_total += std::max(comp.reduced.p1, comp.reduced.p2);
  }
  const std::int64_t prohibitive = red.base1 + red.base2 + extras_total + 1;
  jobs.push_back({red.base1, prohibitive});
  jobs.push_back({prohibitive, red.base2});
  return jobs;
}

R2ScheduleResult r2_exact_bipartite(const UnrelatedInstance& inst) {
  const R2Reduction red = reduce_r2_bipartite(inst);
  const std::vector<R2Job> jobs = r2_exact_dp_jobs(red);
  const R2Result solved = r2_exact(jobs);
  BISCHED_CHECK(solved.on_machine2[jobs.size() - 2] == 0, "anchor 1 strayed from machine 1");
  BISCHED_CHECK(solved.on_machine2[jobs.size() - 1] == 1, "anchor 2 strayed from machine 2");

  std::vector<std::uint8_t> on_m2(red.components.size(), 0);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < red.components.size(); ++c) {
    if (!red.components[c].forced) on_m2[c] = solved.on_machine2[idx++];
  }
  R2ScheduleResult result;
  result.schedule = reconstruct_r2_schedule(inst, red, on_m2);
  result.cmax = makespan(inst, result.schedule);
  BISCHED_CHECK(result.cmax == solved.cmax, "reduced/reconstructed makespans differ");
  return result;
}

}  // namespace bisched
