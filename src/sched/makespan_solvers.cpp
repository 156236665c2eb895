#include "sched/makespan_solvers.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "sched/simd_dispatch.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

using i64 = std::int64_t;
constexpr i64 kInf = std::numeric_limits<i64>::max() / 4;

// One row transition of the R2 kernel inside the old window [0, hi]: both
// origins exist, so f_new[l1] = min(f[l1] + s2, f[l1 - s1]) with the seed's
// tie rule (machine 1 wins unless s1 == 0), visiting l1 top-down so the
// in-place reads still see the previous row. A dead origin's value is kInf,
// and kInf + s2 still compares above every real load (kInf is max/4, s2 is
// clamped by the caller), so no liveness branch is needed; dead states store
// back exactly kInf via the min. The choice bits of one word are accumulated
// in a register and stored once.
void r2_row_scalar(i64* cur, std::uint64_t* choice_j, std::size_t hi, std::size_t s1,
                   i64 s2, bool m1_wins_ties) {
  std::uint64_t word = choice_j[hi / 64];
  for (std::size_t l1 = hi + 1; l1-- > 0;) {
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    const std::uint64_t mask = 1ULL << (l1 % 64);
    word = on_m1 ? (word | mask) : (word & ~mask);
    if (l1 % 64 == 0) {
      choice_j[l1 / 64] = word;
      if (l1 != 0) word = choice_j[l1 / 64 - 1];
    }
  }
}

#if defined(__x86_64__)
// Four-lane version of the same transition, in GCC vector-extension form so
// the tie semantics read off the scalar code (lane compares yield all-ones /
// all-zero masks; the blend and the 4 choice bits derive from them). Blocks
// are walked top-down like the scalar loop: each block's loads (its own old
// values and the lagged ones at -s1, both at indices <= the block top) happen
// before its store, so in-place safety is preserved for every s1, including
// 0. Compiled for AVX2 in this one function; callers dispatch at runtime via
// sched/simd_dispatch, so the build stays baseline-x86-64 and non-AVX2 hosts
// take the scalar row.
typedef i64 V4 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void r2_row_avx2(i64* cur, std::uint64_t* choice_j,
                                                 std::size_t hi, std::size_t s1, i64 s2,
                                                 bool m1_wins_ties) {
  // Vector blocks must be 4-aligned (so their choice nibble stays inside one
  // word) and lag-safe (base >= s1 keeps the lagged load in bounds).
  const std::size_t lo_v = (s1 + 3) & ~static_cast<std::size_t>(3);
  if (hi < 3 || lo_v + 3 > hi) {
    r2_row_scalar(cur, choice_j, hi, s1, s2, m1_wins_ties);
    return;
  }
  const std::size_t top = (hi - 3) & ~static_cast<std::size_t>(3);
  for (std::size_t l1 = hi; l1 > top + 3; --l1) {  // unaligned head; l1 > s1 here
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = cur[l1 - s1];
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    const std::uint64_t mask = 1ULL << (l1 % 64);
    std::uint64_t& word = choice_j[l1 / 64];
    word = on_m1 ? (word | mask) : (word & ~mask);
  }
  const V4 s2v = {s2, s2, s2, s2};
  for (std::size_t base = top;; base -= 4) {
    V4 here;
    V4 lag;
    std::memcpy(&here, cur + base, sizeof(V4));
    std::memcpy(&lag, cur + base - s1, sizeof(V4));
    const V4 via_m2 = here + s2v;
    const V4 on_m1 = m1_wins_ties ? ~(via_m2 < lag) : (lag < via_m2);
    const V4 out = (lag & on_m1) | (via_m2 & ~on_m1);
    std::memcpy(cur + base, &out, sizeof(V4));
    const std::uint64_t bits = static_cast<std::uint64_t>(on_m1[0] & 1) |
                               (static_cast<std::uint64_t>(on_m1[1] & 1) << 1) |
                               (static_cast<std::uint64_t>(on_m1[2] & 1) << 2) |
                               (static_cast<std::uint64_t>(on_m1[3] & 1) << 3);
    const std::size_t shift = base % 64;
    choice_j[base / 64] = (choice_j[base / 64] & ~(0xFULL << shift)) | (bits << shift);
    if (base == lo_v) break;
  }
  for (std::size_t l1 = lo_v; l1-- > 0;) {  // tail below the lag-safe region
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    const std::uint64_t mask = 1ULL << (l1 % 64);
    std::uint64_t& word = choice_j[l1 / 64];
    word = on_m1 ? (word | mask) : (word & ~mask);
  }
}

// Eight-lane AVX-512F form of the same transition — the AVX2 kernel widened:
// blocks are 8-aligned (one choice byte per block stays inside a word) and
// walked top-down, so the in-place safety argument is unchanged — every load
// a block performs (its own old values and the lagged ones at -s1) touches
// indices at or below the block top and happens before that block's store;
// lower blocks store strictly later. Small or lag-tight windows fall back to
// the AVX2 kernel (which in turn falls back to scalar), so every row a
// masked-tail 512-bit form can't cover still runs at the widest width that
// can. On avx512f hardware the lane compares compile to mask-register ops
// and the blend to vpblendmq; the 8 choice bits come straight off the mask
// lanes, exactly like the 4-bit nibble in the AVX2 kernel.
typedef i64 V8 __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) void r2_row_avx512(i64* cur, std::uint64_t* choice_j,
                                                      std::size_t hi, std::size_t s1,
                                                      i64 s2, bool m1_wins_ties) {
  const std::size_t lo_v = (s1 + 7) & ~static_cast<std::size_t>(7);
  if (hi < 7 || lo_v + 7 > hi) {
    r2_row_avx2(cur, choice_j, hi, s1, s2, m1_wins_ties);
    return;
  }
  const std::size_t top = (hi - 7) & ~static_cast<std::size_t>(7);
  for (std::size_t l1 = hi; l1 > top + 7; --l1) {  // unaligned head; l1 > s1 here
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = cur[l1 - s1];
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    const std::uint64_t mask = 1ULL << (l1 % 64);
    std::uint64_t& word = choice_j[l1 / 64];
    word = on_m1 ? (word | mask) : (word & ~mask);
  }
  const V8 s2v = {s2, s2, s2, s2, s2, s2, s2, s2};
  for (std::size_t base = top;; base -= 8) {
    V8 here;
    V8 lag;
    std::memcpy(&here, cur + base, sizeof(V8));
    std::memcpy(&lag, cur + base - s1, sizeof(V8));
    const V8 via_m2 = here + s2v;
    const V8 on_m1 = m1_wins_ties ? ~(via_m2 < lag) : (lag < via_m2);
    const V8 out = (lag & on_m1) | (via_m2 & ~on_m1);
    std::memcpy(cur + base, &out, sizeof(V8));
    const std::uint64_t bits = static_cast<std::uint64_t>(on_m1[0] & 1) |
                               (static_cast<std::uint64_t>(on_m1[1] & 1) << 1) |
                               (static_cast<std::uint64_t>(on_m1[2] & 1) << 2) |
                               (static_cast<std::uint64_t>(on_m1[3] & 1) << 3) |
                               (static_cast<std::uint64_t>(on_m1[4] & 1) << 4) |
                               (static_cast<std::uint64_t>(on_m1[5] & 1) << 5) |
                               (static_cast<std::uint64_t>(on_m1[6] & 1) << 6) |
                               (static_cast<std::uint64_t>(on_m1[7] & 1) << 7);
    const std::size_t shift = base % 64;
    choice_j[base / 64] = (choice_j[base / 64] & ~(0xFFULL << shift)) | (bits << shift);
    if (base == lo_v) break;
  }
  for (std::size_t l1 = lo_v; l1-- > 0;) {  // tail below the lag-safe region
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    const std::uint64_t mask = 1ULL << (l1 % 64);
    std::uint64_t& word = choice_j[l1 / 64];
    word = on_m1 ? (word | mask) : (word & ~mask);
  }
}
#endif  // __x86_64__

using R2RowFn = void (*)(i64*, std::uint64_t*, std::size_t, std::size_t, i64, bool);

// The row kernel for the resolved dispatch level (sched/simd_dispatch) —
// re-read per pass (one relaxed atomic load), so a BISCHED_SIMD refresh
// retargets the very next pass.
R2RowFn r2_row_for_level() {
#if defined(__x86_64__)
  switch (simd_level()) {
    case SimdLevel::kAvx512:
      return r2_row_avx512;
    case SimdLevel::kAvx2:
      return r2_row_avx2;
    case SimdLevel::kScalar:
      break;
  }
#endif
  return r2_row_scalar;
}

// One DP pass over scaled times s1/s2 at `budget`: f_j[l1] = the least
// machine-2 load over the first j jobs with machine-1 load l1, for every
// l1 <= budget. Returns the least makespan the final row holds, min over
// reachable l1 of max(l1, f[l1]), and writes the assignment of the least l1
// that attains it into `on_m2`. The caller guarantees some assignment fits
// the budget (greedy's does), so the final row is never empty.
//
// The kernel is the in-place "pull" form of the textbook two-row DP: states
// are visited in descending l1, each new f_j[l1] reads f_{j-1} at l1 (place
// job j on machine 2) and l1 - s1[j] (machine 1), both of which still hold
// the previous row when writing top-down — so there is no second row, no
// per-row fill to infinity, and the only per-row work is the reachable
// window itself. That window [0, hi] (0 is always reachable: every job on
// machine 2 keeps l1 at 0) grows by at most s1[j] per row instead of
// spanning the full budget width.
//
// Tie-breaking matches the seed push kernel bit for bit: there, the machine-1
// write into state l1 happened at origin l1 - s1[j] — *before* the machine-2
// write at origin l1 — so machine 1 won ties unless s1[j] == 0, in which case
// both writes happened at the same origin in body order (machine 2 first).
// A state l1 reads only states <= l1, so the assignment is the one a pass at
// the optimum's own budget gives — at delta = 1, the seed binary search's.
// O(n * hi) time and n * (budget + 1) choice bits.
i64 r2_dp_pass(std::span<const i64> s1s, std::span<const i64> s2s, i64 budget,
               std::vector<std::uint8_t>& on_m2) {
  const std::size_t n = s1s.size();
  const auto width = static_cast<std::size_t>(budget) + 1;
  const std::size_t words = (width + 63) / 64;
  std::vector<i64> row(width);
  std::vector<std::uint64_t> choice(n * words);
  // No clearing: every state inside the window is written each row, and the
  // reconstruction only reads (job, state) pairs on the reachable path.
  i64* cur = row.data();
  cur[0] = 0;
  std::size_t hi = 0;
  const R2RowFn row_fn = r2_row_for_level();

  for (std::size_t j = 0; j < n; ++j) {
    const auto s1 = static_cast<std::size_t>(s1s[j]);
    // Clamped so kInf + s2 cannot overflow; a time at kInf scale is already
    // infeasible for any budget the size guard admits.
    const i64 s2 = std::min(s2s[j], kInf);
    const std::size_t hi_next = std::min(width - 1, hi + s1);
    std::uint64_t* choice_j = choice.data() + j * words;

    // States above the old window are reachable only via machine 1 (their
    // machine-2 origin was unreachable last row) — and only those with an
    // origin at all (l1 >= s1); the rest of the grown window is dead.
    // Nonempty only when s1 > 0.
    for (std::size_t l1 = hi_next; l1 > hi && l1 >= s1; --l1) {
      cur[l1] = cur[l1 - s1];
      choice_j[l1 / 64] |= 1ULL << (l1 % 64);
    }
    for (std::size_t l1 = std::min(hi_next, s1 - 1) + 1; l1 > hi + 1;) {
      cur[--l1] = kInf;
    }
    // Inside the old window both origins exist; r2_row_scalar documents the
    // transition, the AVX2/AVX-512 rows are its 4- and 8-lane forms.
    row_fn(cur, choice_j, hi, s1, s2, /*m1_wins_ties=*/s1 > 0);
    hi = hi_next;
  }

  i64 best = budget;
  for (std::size_t l1 = 0; l1 <= hi && static_cast<i64>(l1) < best; ++l1) {
    best = std::min(best, std::max(static_cast<i64>(l1), cur[l1]));
  }
  std::size_t l1 = 0;
  while (l1 <= hi && cur[l1] > best) ++l1;
  BISCHED_CHECK(l1 <= hi, "R2 DP pass found no schedule within its budget");

  on_m2.assign(n, 0);
  for (std::size_t j = n; j-- > 0;) {
    if ((choice[j * words + l1 / 64] >> (l1 % 64)) & 1ULL) {
      BISCHED_CHECK(l1 >= static_cast<std::size_t>(s1s[j]), "DP reconstruction failed");
      l1 -= static_cast<std::size_t>(s1s[j]);
    } else {
      on_m2[j] = 1;
    }
  }
  return best;
}

R2Result finalize(std::span<const R2Job> jobs, std::vector<std::uint8_t> on_m2) {
  R2Result r;
  r.on_machine2 = std::move(on_m2);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (r.on_machine2[j]) {
      r.load2 += jobs[j].p2;
    } else {
      r.load1 += jobs[j].p1;
    }
  }
  r.cmax = std::max(r.load1, r.load2);
  return r;
}

// Both R2 entry points: times scaled down by delta, one pass at budget
// floor(UB / delta) with UB the greedy makespan (greedy's scaled loads fit
// it: sum floor(p / delta) <= floor(sum p / delta)). OPT's own assignment
// fits the budget too, so the pass's scaled optimum S is <= OPT / delta, and
// unscaling adds under delta per job: the result is <= delta * S +
// n * (delta - 1) <= OPT + n * (delta - 1) — exactly OPT at delta = 1.
// Greedy's assignment is kept unless the pass's is strictly better, as the
// seed's search, which never accepts a budget below an optimal greedy, did.
// nullopt, before anything is allocated, when the n x (budget + 1) table
// would pass the size guard.
std::optional<R2Result> r2_scaled_pass(std::span<const R2Job> jobs, R2Result greedy,
                                       i64 delta) {
  const std::size_t n = jobs.size();
  const i64 budget = greedy.cmax / delta;
  if (static_cast<double>(n) * (static_cast<double>(budget) + 1) > 2e9) return std::nullopt;
  std::vector<i64> s1(n), s2(n);
  for (std::size_t j = 0; j < n; ++j) {
    s1[j] = jobs[j].p1 / delta;
    s2[j] = jobs[j].p2 / delta;
  }
  std::vector<std::uint8_t> on_m2;
  const i64 best = r2_dp_pass(s1, s2, budget, on_m2);
  R2Result r = finalize(jobs, std::move(on_m2));
  BISCHED_CHECK(r.cmax <= delta * best + static_cast<i64>(n) * (delta - 1),
                "R2 DP pass produced an inconsistent makespan");
  if (r.cmax < greedy.cmax) return r;
  return greedy;
}

}  // namespace

R2Result r2_greedy(std::span<const R2Job> jobs) {
  std::vector<std::uint8_t> on_m2(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    on_m2[j] = static_cast<std::uint8_t>(jobs[j].p2 < jobs[j].p1);
  }
  return finalize(jobs, std::move(on_m2));
}

R2Result r2_exact(std::span<const R2Job> jobs) {
  for (const auto& job : jobs) BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0, "negative time");
  R2Result ub = r2_greedy(jobs);
  if (ub.cmax == 0) return ub;
  std::optional<R2Result> r = r2_scaled_pass(jobs, std::move(ub), /*delta=*/1);
  BISCHED_CHECK(r.has_value(), "R2 DP table too large; reduce instance or raise eps");
  return std::move(*r);
}

std::optional<R2Result> r2_fptas(std::span<const R2Job> jobs, double eps) {
  BISCHED_CHECK(eps > 0, "eps must be positive");
  for (const auto& job : jobs) BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0, "negative time");
  R2Result greedy = r2_greedy(jobs);
  if (greedy.cmax == 0) return greedy;

  // Lower bounds on OPT: the largest unavoidable job; half the unavoidable
  // total (two machines cannot both dodge sum_j min(p1, p2)). With delta =
  // eps * lb / n the pass's n * delta additive error is <= eps * OPT. delta
  // is capped at greedy's makespan before the cast, which keeps the cast
  // defined for any eps the wire admits, up to 1e308 and +inf.
  i64 lb = 1;
  i64 sum_min = 0;
  for (const auto& job : jobs) {
    lb = std::max(lb, std::min(job.p1, job.p2));
    sum_min += std::min(job.p1, job.p2);
  }
  lb = std::max(lb, (sum_min + 1) / 2);
  const double delta =
      std::min(eps * static_cast<double>(lb) / static_cast<double>(jobs.size()),
               static_cast<double>(greedy.cmax));
  return r2_scaled_pass(jobs, std::move(greedy), std::max<i64>(1, static_cast<i64>(delta)));
}

std::int64_t rm_bruteforce_makespan(const std::vector<std::vector<std::int64_t>>& times,
                                    std::vector<int>* assignment) {
  BISCHED_CHECK(!times.empty(), "need at least one machine");
  const int m = static_cast<int>(times.size());
  const int n = static_cast<int>(times[0].size());
  BISCHED_CHECK(n <= 16, "brute force limited to n <= 16 jobs");

  std::vector<i64> loads(static_cast<std::size_t>(m), 0);
  std::vector<int> current(static_cast<std::size_t>(n), -1);
  std::vector<int> best_assignment;
  i64 best = kInf;

  auto dfs = [&](auto&& self, int j, i64 cmax_so_far) -> void {
    if (cmax_so_far >= best) return;
    if (j == n) {
      best = cmax_so_far;
      best_assignment = current;
      return;
    }
    for (int i = 0; i < m; ++i) {
      const i64 t = times[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      loads[static_cast<std::size_t>(i)] += t;
      current[static_cast<std::size_t>(j)] = i;
      self(self, j + 1, std::max(cmax_so_far, loads[static_cast<std::size_t>(i)]));
      loads[static_cast<std::size_t>(i)] -= t;
    }
    current[static_cast<std::size_t>(j)] = -1;
  };
  dfs(dfs, 0, 0);
  if (assignment != nullptr) *assignment = best_assignment;
  return best;
}

}  // namespace bisched
