#include "core/alg_sqrt.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/r2_algorithms.hpp"
#include "graph/bipartite.hpp"
#include "graph/independent_set.hpp"
#include "sched/capacity.hpp"
#include "sched/list_schedule.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

// Step 1: sum p <= 4 implies n <= 4 jobs; enumerate assignments onto the
// min(m, n) fastest machines (any schedule can be remapped there without
// increasing the makespan).
Alg1Result brute_force_tiny(const UniformInstance& inst) {
  const int n = inst.num_jobs();
  const int machines = std::min(inst.num_machines(), std::max(n, 1));
  Alg1Result best;
  best.solved_exactly = true;
  bool have = false;
  std::vector<int> assign(static_cast<std::size_t>(n), 0);
  for (;;) {
    Schedule s{assign};
    if (validate(inst, s) == ScheduleStatus::kValid) {
      const Rational cm = makespan(inst, s);
      if (!have || cm < best.cmax) {
        best.schedule = s;
        best.cmax = cm;
        have = true;
      }
    }
    int pos = n - 1;
    while (pos >= 0 && assign[static_cast<std::size_t>(pos)] == machines - 1) {
      assign[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
    ++assign[static_cast<std::size_t>(pos)];
  }
  BISCHED_CHECK(have, "no feasible tiny schedule (graph needs more machines)");
  return best;
}

}  // namespace

Alg1Result alg1_sqrt_approx(const UniformInstance& inst) {
  const int n = inst.num_jobs();
  const int m = inst.num_machines();
  const std::int64_t total = inst.total_work();

  if (m == 1) {
    BISCHED_CHECK(inst.conflicts.num_edges() == 0,
                  "single machine requires an edgeless conflict graph");
    Alg1Result r;
    r.schedule.machine_of.assign(static_cast<std::size_t>(n), 0);
    r.cmax = Rational(total, inst.speeds[0]);
    r.solved_exactly = true;
    return r;
  }

  if (total <= 4) return brute_force_tiny(inst);

  const auto bp = bipartition(inst.conflicts);
  BISCHED_CHECK(bp.has_value(), "Algorithm 1 requires a bipartite conflict graph");

  // Step 2: big jobs (p_j >= sqrt(total), i.e. p_j^2 >= total — exact).
  std::vector<int> big;
  for (int j = 0; j < n; ++j) {
    const std::int64_t pj = inst.p[static_cast<std::size_t>(j)];
    if (pj * pj >= total) big.push_back(j);
  }
  const auto set_i = max_weight_independent_superset(inst.conflicts, *bp, inst.p, big);

  // Step 3: S1 = Algorithm 5 on the two fastest machines with eps = 1, or
  // Algorithm 4 (also 2-approximate) when the FPTAS table would not fit.
  Alg1Result result;
  {
    const UnrelatedInstance two = uniform_as_unrelated(inst, 0, 2);
    std::optional<R2ScheduleResult> s1 = r2_fptas_bipartite(two, /*eps=*/1.0);
    if (!s1.has_value()) s1 = r2_two_approx(two);
    result.schedule.machine_of = s1->schedule.machine_of;  // machines 0/1 map 1:1
    result.cmax = makespan(inst, result.schedule);
    result.s1_cmax = result.cmax;
  }

  // Steps 4-11: the I-based schedule needs at least three machines.
  if (!set_i.has_value() || m < 3) return result;

  const std::int64_t weight_i = set_i->weight;
  const std::int64_t rest = total - weight_i;

  // Step 5: C**_max.
  const auto cover_all = min_cover_time(inst.speeds, total);
  const std::span<const std::int64_t> tail(inst.speeds.data() + 1, inst.speeds.size() - 1);
  const auto cover_rest = min_cover_time(tail, rest);
  BISCHED_CHECK(cover_all.has_value() && cover_rest.has_value(), "machine groups nonempty");
  Rational cstarstar = rat_max(*cover_all, *cover_rest);
  cstarstar = rat_max(cstarstar, Rational(inst.pmax(), inst.speeds[0]));
  result.cstarstar = cstarstar;

  // Step 6: rounded-down capacities at C**.
  std::vector<std::int64_t> caps(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    caps[static_cast<std::size_t>(i)] =
        machine_capacity(inst.speeds[static_cast<std::size_t>(i)], cstarstar);
  }

  // Step 7: least k >= 3 with capacities of M2..Mk covering J\I.
  int k = -1;
  {
    std::int64_t cum = 0;
    for (int i = 1; i < m; ++i) {
      cum += caps[static_cast<std::size_t>(i)];
      if (i + 1 >= 3 && cum >= rest) {
        k = i + 1;
        break;
      }
    }
  }
  BISCHED_CHECK(k != -1, "C** guarantees M2..Mm cover J\\I");
  result.k = k;

  // Step 8: weighted inequitable coloring of J \ I.
  std::vector<int> rest_jobs;
  for (int j = 0; j < n; ++j) {
    if (!set_i->in_set[static_cast<std::size_t>(j)]) rest_jobs.push_back(j);
  }
  std::vector<int> old_of_new;
  const Graph sub = induced_subgraph(inst.conflicts, rest_jobs, &old_of_new);
  std::vector<std::int64_t> subw(rest_jobs.size());
  for (std::size_t i = 0; i < rest_jobs.size(); ++i) {
    subw[i] = inst.p[static_cast<std::size_t>(rest_jobs[i])];
  }
  const auto tc = inequitable_two_coloring(sub, subw);
  BISCHED_CHECK(tc.has_value(), "induced subgraph of a bipartite graph is bipartite");
  std::vector<int> j1, j2;
  for (std::size_t i = 0; i < rest_jobs.size(); ++i) {
    (tc->color[i] == 0 ? j1 : j2).push_back(old_of_new[i]);
  }
  const std::int64_t w1 = tc->weight[0];

  // Step 9: biggest k' in [2, k] whose M2..Mk' capacities stay within w(J'_1).
  int k_prime = 2;
  {
    std::int64_t cum = 0;
    for (int i = 1; i < k; ++i) {
      cum += caps[static_cast<std::size_t>(i)];
      if (cum <= w1) k_prime = i + 1;
    }
  }
  result.k_prime = k_prime;

  // Step 10: assemble S2.
  std::vector<int> group1, group2, group_i;
  for (int i = 1; i < k_prime; ++i) group1.push_back(i);           // M2..Mk'
  for (int i = k_prime; i < k; ++i) group2.push_back(i);           // M(k'+1)..Mk
  group_i.push_back(0);                                            // M1
  for (int i = k; i < m; ++i) group_i.push_back(i);                // M(k+1)..Mm
  if (group2.empty()) {
    BISCHED_CHECK(j2.empty(), "k' = k implies an empty light class");
  }

  Schedule s2;
  s2.machine_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> loads(static_cast<std::size_t>(m), 0);
  std::vector<int> i_jobs;
  for (int j = 0; j < n; ++j) {
    if (set_i->in_set[static_cast<std::size_t>(j)]) i_jobs.push_back(j);
  }
  list_schedule_uniform(inst, j1, group1, s2, loads);
  list_schedule_uniform(inst, j2, group2, s2, loads);
  list_schedule_uniform(inst, i_jobs, group_i, s2, loads);
  BISCHED_DCHECK(validate(inst, s2) == ScheduleStatus::kValid, "S2 invalid");

  result.s2_built = true;
  result.s2_cmax = makespan(inst, s2);

  // Step 12: best of S1 and S2.
  if (result.s2_cmax < result.cmax) {
    result.schedule = std::move(s2);
    result.cmax = result.s2_cmax;
    result.used_s2 = true;
  }
  return result;
}

}  // namespace bisched
