#include "core/q2_general.hpp"

#include <algorithm>

#include "core/r2_algorithms.hpp"
#include "graph/bipartite.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

void check_preconditions(const UniformInstance& inst) {
  BISCHED_CHECK(inst.num_machines() == 2, "Q2 solvers require two machines");
}

Rational q2_makespan_for_load(const UniformInstance& inst, std::int64_t load1) {
  const std::int64_t load2 = inst.total_work() - load1;
  return rat_max(Rational(load1, inst.speeds[0]), Rational(load2, inst.speeds[1]));
}

// Bitset subset-sum over component orientations. prefix[c] holds the loads
// achievable with the first c components; side_weight[c] the two options.
struct LoadDp {
  std::vector<std::vector<std::uint64_t>> prefix;
  std::vector<std::array<std::int64_t, 2>> side_weight;
  std::int64_t total = 0;

  static bool test(const std::vector<std::uint64_t>& bits, std::int64_t x) {
    return (bits[static_cast<std::size_t>(x) / 64] >> (x % 64)) & 1ULL;
  }
  static void set(std::vector<std::uint64_t>& bits, std::int64_t x) {
    bits[static_cast<std::size_t>(x) / 64] |= 1ULL << (x % 64);
  }
};

LoadDp run_load_dp(const UniformInstance& inst, const Bipartition& bp) {
  LoadDp dp;
  dp.total = inst.total_work();
  BISCHED_CHECK(dp.total <= (INT64_C(1) << 26),
                "weighted Q2 DP sized for sum p <= 2^26; use q2_fptas");
  dp.side_weight.assign(static_cast<std::size_t>(bp.num_components), {0, 0});
  for (int v = 0; v < inst.num_jobs(); ++v) {
    dp.side_weight[static_cast<std::size_t>(bp.component[static_cast<std::size_t>(v)])]
                  [bp.side[static_cast<std::size_t>(v)]] += inst.p[static_cast<std::size_t>(v)];
  }
  const std::size_t words = static_cast<std::size_t>(dp.total) / 64 + 1;
  std::vector<std::uint64_t> cur(words, 0);
  LoadDp::set(cur, 0);
  dp.prefix.push_back(cur);
  for (int c = 0; c < bp.num_components; ++c) {
    std::vector<std::uint64_t> next(words, 0);
    for (const std::int64_t shift : {dp.side_weight[static_cast<std::size_t>(c)][0],
                                     dp.side_weight[static_cast<std::size_t>(c)][1]}) {
      const auto word_shift = static_cast<std::size_t>(shift / 64);
      const int bit_shift = static_cast<int>(shift % 64);
      for (std::size_t w = words; w-- > 0;) {
        if (w < word_shift) break;
        std::uint64_t value = cur[w - word_shift] << bit_shift;
        if (bit_shift != 0 && w > word_shift) {
          value |= cur[w - word_shift - 1] >> (64 - bit_shift);
        }
        next[w] |= value;
      }
      if (dp.side_weight[static_cast<std::size_t>(c)][0] ==
          dp.side_weight[static_cast<std::size_t>(c)][1]) {
        break;
      }
    }
    cur.swap(next);
    dp.prefix.push_back(cur);
  }
  return dp;
}

Schedule schedule_for_load(const UniformInstance& inst, const Bipartition& bp,
                           const LoadDp& dp, std::int64_t load1) {
  Schedule s;
  s.machine_of.assign(static_cast<std::size_t>(inst.num_jobs()), -1);
  std::int64_t remaining = load1;
  for (int c = bp.num_components; c-- > 0;) {
    const std::int64_t a = dp.side_weight[static_cast<std::size_t>(c)][0];
    const std::int64_t b = dp.side_weight[static_cast<std::size_t>(c)][1];
    int to_m1_side;
    if (remaining >= a && LoadDp::test(dp.prefix[static_cast<std::size_t>(c)], remaining - a)) {
      to_m1_side = 0;
      remaining -= a;
    } else {
      BISCHED_CHECK(
          remaining >= b && LoadDp::test(dp.prefix[static_cast<std::size_t>(c)], remaining - b),
          "load reconstruction failed");
      to_m1_side = 1;
      remaining -= b;
    }
    for (int v : bp.component_vertices[static_cast<std::size_t>(c)]) {
      const int side = bp.side[static_cast<std::size_t>(v)];
      s.machine_of[static_cast<std::size_t>(v)] = (side == to_m1_side) ? 0 : 1;
    }
  }
  BISCHED_CHECK(remaining == 0, "load reconstruction did not consume the target");
  return s;
}

}  // namespace

std::vector<std::uint8_t> q2_achievable_loads(const UniformInstance& inst) {
  check_preconditions(inst);
  const auto bp = bipartition(inst.conflicts);
  BISCHED_CHECK(bp.has_value(), "bipartite conflict graph required");
  const LoadDp dp = run_load_dp(inst, *bp);
  std::vector<std::uint8_t> achievable(static_cast<std::size_t>(dp.total) + 1, 0);
  for (std::int64_t x = 0; x <= dp.total; ++x) {
    achievable[static_cast<std::size_t>(x)] =
        static_cast<std::uint8_t>(LoadDp::test(dp.prefix.back(), x));
  }
  return achievable;
}

Q2Result q2_weighted_exact_dp(const UniformInstance& inst) {
  check_preconditions(inst);
  const auto bp = bipartition(inst.conflicts);
  BISCHED_CHECK(bp.has_value(), "bipartite conflict graph required");
  const LoadDp dp = run_load_dp(inst, *bp);

  std::int64_t best_load = -1;
  Rational best_cost = 0;
  for (std::int64_t load1 = 0; load1 <= dp.total; ++load1) {
    if (!LoadDp::test(dp.prefix.back(), load1)) continue;
    const Rational cost = q2_makespan_for_load(inst, load1);
    if (best_load == -1 || cost < best_cost) {
      best_load = load1;
      best_cost = cost;
    }
  }
  BISCHED_CHECK(best_load != -1, "bipartite instances always admit a 2-machine split");

  Q2Result result;
  result.schedule = schedule_for_load(inst, *bp, dp, best_load);
  result.cmax = best_cost;
  BISCHED_DCHECK(validate(inst, result.schedule) == ScheduleStatus::kValid,
                 "weighted Q2 DP schedule invalid");
  BISCHED_DCHECK(makespan(inst, result.schedule) == result.cmax,
                 "weighted Q2 DP makespan mismatch");
  return result;
}

std::optional<Q2Result> q2_fptas(const UniformInstance& inst, double eps) {
  check_preconditions(inst);
  std::int64_t scale = 0;
  const UnrelatedInstance embedded = uniform_as_unrelated(inst, 0, 2, &scale);
  const std::optional<R2ScheduleResult> solved = r2_fptas_bipartite(embedded, eps);
  if (!solved.has_value()) return std::nullopt;
  Q2Result result;
  result.schedule = solved->schedule;
  result.cmax = makespan(inst, result.schedule);
  // Consistency: the embedding scales every makespan by `scale` exactly.
  BISCHED_DCHECK(result.cmax == Rational(solved->cmax, scale), "embedding scale mismatch");
  return result;
}

Q2Result q2_exact_via_r2(const UniformInstance& inst) {
  check_preconditions(inst);
  std::int64_t scale = 0;
  const UnrelatedInstance embedded = uniform_as_unrelated(inst, 0, 2, &scale);
  const R2ScheduleResult solved = r2_exact_bipartite(embedded);
  Q2Result result;
  result.schedule = solved.schedule;
  result.cmax = makespan(inst, result.schedule);
  BISCHED_DCHECK(result.cmax == Rational(solved.cmax, scale), "embedding scale mismatch");
  return result;
}

}  // namespace bisched
