#include "core/q2_unit_exact.hpp"

#include <algorithm>

#include "core/r2_algorithms.hpp"
#include "graph/bipartite.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

void check_preconditions(const UniformInstance& inst) {
  BISCHED_CHECK(inst.num_machines() == 2, "Theorem 4 concerns two machines");
  for (std::int64_t pj : inst.p) BISCHED_CHECK(pj == 1, "Theorem 4 concerns unit jobs");
}

// Orientation choice per component realizing a given split, via the forward
// DP's prefix tables. prefix[c] = bitset of achievable M1-counts using the
// first c components.
struct SplitDp {
  std::vector<std::vector<std::uint64_t>> prefix;
  std::vector<std::array<int, 2>> side_count;  // per component
  int n = 0;

  static bool test(const std::vector<std::uint64_t>& bits, int x) {
    return (bits[static_cast<std::size_t>(x) / 64] >> (x % 64)) & 1ULL;
  }
  static void set(std::vector<std::uint64_t>& bits, int x) {
    bits[static_cast<std::size_t>(x) / 64] |= 1ULL << (x % 64);
  }
};

SplitDp run_split_dp(const UniformInstance& inst, const Bipartition& bp) {
  SplitDp dp;
  dp.n = inst.num_jobs();
  BISCHED_CHECK(dp.n <= 200000, "split DP sized for n <= 2e5");
  dp.side_count.assign(static_cast<std::size_t>(bp.num_components), {0, 0});
  for (int v = 0; v < dp.n; ++v) {
    dp.side_count[static_cast<std::size_t>(bp.component[static_cast<std::size_t>(v)])]
                 [bp.side[static_cast<std::size_t>(v)]]++;
  }
  const std::size_t words = static_cast<std::size_t>(dp.n) / 64 + 1;
  dp.prefix.reserve(static_cast<std::size_t>(bp.num_components) + 1);
  std::vector<std::uint64_t> cur(words, 0);
  SplitDp::set(cur, 0);
  dp.prefix.push_back(cur);
  for (int c = 0; c < bp.num_components; ++c) {
    std::vector<std::uint64_t> next(words, 0);
    for (int shift : {dp.side_count[static_cast<std::size_t>(c)][0],
                      dp.side_count[static_cast<std::size_t>(c)][1]}) {
      // next |= cur << shift
      const int word_shift = shift / 64;
      const int bit_shift = shift % 64;
      for (std::size_t w = words; w-- > 0;) {
        if (w < static_cast<std::size_t>(word_shift)) break;
        std::uint64_t v = cur[w - static_cast<std::size_t>(word_shift)] << bit_shift;
        if (bit_shift != 0 && w > static_cast<std::size_t>(word_shift)) {
          v |= cur[w - static_cast<std::size_t>(word_shift) - 1] >> (64 - bit_shift);
        }
        next[w] |= v;
      }
      if (dp.side_count[static_cast<std::size_t>(c)][0] ==
          dp.side_count[static_cast<std::size_t>(c)][1]) {
        break;  // both orientations contribute the same count
      }
    }
    cur.swap(next);
    dp.prefix.push_back(cur);
  }
  return dp;
}

Schedule schedule_for_split(const UniformInstance& inst, const Bipartition& bp,
                            const SplitDp& dp, int n1) {
  Schedule s;
  s.machine_of.assign(static_cast<std::size_t>(inst.num_jobs()), -1);
  int remaining = n1;
  for (int c = bp.num_components; c-- > 0;) {
    const int a = dp.side_count[static_cast<std::size_t>(c)][0];
    const int b = dp.side_count[static_cast<std::size_t>(c)][1];
    int to_m1_side;  // which side of component c goes to M1
    if (remaining >= a && SplitDp::test(dp.prefix[static_cast<std::size_t>(c)], remaining - a)) {
      to_m1_side = 0;
      remaining -= a;
    } else {
      BISCHED_CHECK(remaining >= b &&
                        SplitDp::test(dp.prefix[static_cast<std::size_t>(c)], remaining - b),
                    "split reconstruction failed");
      to_m1_side = 1;
      remaining -= b;
    }
    for (int v : bp.component_vertices[static_cast<std::size_t>(c)]) {
      const int side = bp.side[static_cast<std::size_t>(v)];
      s.machine_of[static_cast<std::size_t>(v)] = (side == to_m1_side) ? 0 : 1;
    }
  }
  BISCHED_CHECK(remaining == 0, "split reconstruction did not consume the target");
  return s;
}

Rational split_cost(const UniformInstance& inst, int n1) {
  const int n2 = inst.num_jobs() - n1;
  return rat_max(Rational(n1, inst.speeds[0]), Rational(n2, inst.speeds[1]));
}

}  // namespace

std::vector<std::uint8_t> q2_achievable_splits(const UniformInstance& inst) {
  check_preconditions(inst);
  const auto bp = bipartition(inst.conflicts);
  BISCHED_CHECK(bp.has_value(), "Theorem 4 concerns bipartite graphs");
  const SplitDp dp = run_split_dp(inst, *bp);
  std::vector<std::uint8_t> achievable(static_cast<std::size_t>(inst.num_jobs()) + 1, 0);
  for (int n1 = 0; n1 <= inst.num_jobs(); ++n1) {
    achievable[static_cast<std::size_t>(n1)] =
        static_cast<std::uint8_t>(SplitDp::test(dp.prefix.back(), n1));
  }
  return achievable;
}

Q2ExactResult q2_unit_exact_dp(const UniformInstance& inst) {
  check_preconditions(inst);
  const auto bp = bipartition(inst.conflicts);
  BISCHED_CHECK(bp.has_value(), "Theorem 4 concerns bipartite graphs");
  const SplitDp dp = run_split_dp(inst, *bp);

  int best_n1 = -1;
  Rational best_cost = 0;
  for (int n1 = 0; n1 <= inst.num_jobs(); ++n1) {
    if (!SplitDp::test(dp.prefix.back(), n1)) continue;
    const Rational cost = split_cost(inst, n1);
    if (best_n1 == -1 || cost < best_cost) {
      best_n1 = n1;
      best_cost = cost;
    }
  }
  BISCHED_CHECK(best_n1 != -1, "a bipartite instance always admits some split");

  Q2ExactResult result;
  result.schedule = schedule_for_split(inst, *bp, dp, best_n1);
  result.cmax = best_cost;
  result.jobs_on_m1 = best_n1;
  BISCHED_DCHECK(validate(inst, result.schedule) == ScheduleStatus::kValid,
                 "Theorem 4 DP schedule invalid");
  BISCHED_DCHECK(makespan(inst, result.schedule) == result.cmax,
                 "Theorem 4 DP makespan mismatch");
  return result;
}

std::optional<Q2ExactResult> q2_unit_exact_via_fptas(const UniformInstance& inst) {
  check_preconditions(inst);
  const int n = inst.num_jobs();
  BISCHED_CHECK(bipartition(inst.conflicts).has_value(),
                "Theorem 4 concerns bipartite graphs");
  if (n == 0) {
    return Q2ExactResult{Schedule{}, Rational(0), 0};
  }

  Q2ExactResult best;
  bool have_best = false;

  auto consider = [&](int n1, Schedule s) {
    const Rational cost = split_cost(inst, n1);
    if (!have_best || cost < best.cmax) {
      best.schedule = std::move(s);
      best.cmax = cost;
      best.jobs_on_m1 = n1;
      have_best = true;
    }
  };

  // Degenerate splits: all jobs on one machine need an edgeless graph.
  if (inst.conflicts.num_edges() == 0) {
    Schedule all0;
    all0.machine_of.assign(static_cast<std::size_t>(n), 0);
    consider(n, std::move(all0));
    Schedule all1;
    all1.machine_of.assign(static_cast<std::size_t>(n), 1);
    consider(0, std::move(all1));
  }

  // Proper splits, decided by the FPTAS as in the paper's appendix.
  const double eps = 1.0 / (static_cast<double>(n) + 1.0);
  for (int n1 = 1; n1 < n; ++n1) {
    const std::int64_t n2 = n - n1;
    std::vector<std::vector<std::int64_t>> times(2);
    times[0].assign(static_cast<std::size_t>(n), n2);  // p_{1,j} = n1*n2 / n1
    times[1].assign(static_cast<std::size_t>(n), n1);  // p_{2,j} = n1*n2 / n2
    const UnrelatedInstance prepared = make_unrelated_instance(times, inst.conflicts);
    const std::optional<R2ScheduleResult> solved = r2_fptas_bipartite(prepared, eps);
    if (!solved.has_value()) return std::nullopt;
    // Feasible split <=> the FPTAS achieves exactly n1*n2 (any deviation is a
    // relative error > 1/n > eps, which the FPTAS cannot emit).
    if (solved->cmax != static_cast<std::int64_t>(n1) * n2) continue;
    consider(n1, solved->schedule);
  }
  BISCHED_CHECK(have_best, "a bipartite instance always admits some split");
  BISCHED_DCHECK(validate(inst, best.schedule) == ScheduleStatus::kValid,
                 "Theorem 4 FPTAS-route schedule invalid");
  return best;
}

}  // namespace bisched
