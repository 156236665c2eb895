#include "sched/makespan_solvers.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sched/simd_dispatch.hpp"
#include "util/check.hpp"

namespace bisched {

namespace {

using i64 = std::int64_t;
constexpr i64 kInf = std::numeric_limits<i64>::max() / 4;

// Caller-owned scratch for the R2/R3 feasibility kernels. One arena is
// threaded through every probe of an FPTAS binary search, so the DP row, the
// packed choice matrix, and the scaled-time vectors are allocated once at the
// high-water size and then reused; `assignment` retains the reconstruction of
// the last *accepted* probe, which lets the searches return it directly
// instead of re-running a terminal feasible(lo) probe (docs/perf.md).
struct DpArena {
  std::vector<i64> cur;                  // R2: one row, updated in place; R3: grid
  std::vector<i64> next;                 // R3 only (the 2-D kernel pushes)
  std::vector<std::uint64_t> choice;     // R2: 1 bit/state/job; R3: 2 bits
  std::vector<i64> s1, s2, s3;           // scaled processing times
  std::vector<std::uint8_t> assignment;  // reconstruction of the last accept
};

// One row transition of the R2 kernel inside the old window [0, hi]: both
// origins exist, so f_new[l1] = min(f[l1] + s2, f[l1 - s1]) with the seed's
// tie rule (machine 1 wins unless s1 == 0), visiting l1 top-down so the
// in-place reads still see the previous row. A dead origin's value is kInf,
// and kInf + s2 still compares above every real load (kInf is max/4, s2 is
// clamped by the caller), so no liveness branch is needed; dead states store
// back exactly kInf via the min. The choice bits of one word are accumulated
// in a register and stored once.
//
// choice_j == nullptr is the value-only probe form: on a tie both candidates
// carry the same load, so the stored values — and therefore feasibility —
// are independent of the tie rule, and the row is a bare min with no
// choice-matrix traffic at all.
void r2_row_scalar(i64* cur, std::uint64_t* choice_j, std::size_t hi, std::size_t s1,
                   i64 s2, bool m1_wins_ties) {
  if (choice_j == nullptr) {
    for (std::size_t l1 = hi + 1; l1-- > 0;) {
      const i64 via_m2 = cur[l1] + s2;
      const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
      cur[l1] = via_m1 < via_m2 ? via_m1 : via_m2;
    }
    return;
  }
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
// take the scalar row. choice_j may be nullptr (value-only probe): the blend
// is unchanged, the bit extraction and its word read-modify-write vanish.
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
    if (choice_j != nullptr) {
      const std::uint64_t mask = 1ULL << (l1 % 64);
      std::uint64_t& word = choice_j[l1 / 64];
      word = on_m1 ? (word | mask) : (word & ~mask);
    }
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
    if (choice_j != nullptr) {
      const std::uint64_t bits =
          static_cast<std::uint64_t>(on_m1[0] & 1) |
          (static_cast<std::uint64_t>(on_m1[1] & 1) << 1) |
          (static_cast<std::uint64_t>(on_m1[2] & 1) << 2) |
          (static_cast<std::uint64_t>(on_m1[3] & 1) << 3);
      const std::size_t shift = base % 64;
      choice_j[base / 64] =
          (choice_j[base / 64] & ~(0xFULL << shift)) | (bits << shift);
    }
    if (base == lo_v) break;
  }
  for (std::size_t l1 = lo_v; l1-- > 0;) {  // tail below the lag-safe region
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    if (choice_j != nullptr) {
      const std::uint64_t mask = 1ULL << (l1 % 64);
      std::uint64_t& word = choice_j[l1 / 64];
      word = on_m1 ? (word | mask) : (word & ~mask);
    }
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
    if (choice_j != nullptr) {
      const std::uint64_t mask = 1ULL << (l1 % 64);
      std::uint64_t& word = choice_j[l1 / 64];
      word = on_m1 ? (word | mask) : (word & ~mask);
    }
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
    if (choice_j != nullptr) {
      const std::uint64_t bits =
          static_cast<std::uint64_t>(on_m1[0] & 1) |
          (static_cast<std::uint64_t>(on_m1[1] & 1) << 1) |
          (static_cast<std::uint64_t>(on_m1[2] & 1) << 2) |
          (static_cast<std::uint64_t>(on_m1[3] & 1) << 3) |
          (static_cast<std::uint64_t>(on_m1[4] & 1) << 4) |
          (static_cast<std::uint64_t>(on_m1[5] & 1) << 5) |
          (static_cast<std::uint64_t>(on_m1[6] & 1) << 6) |
          (static_cast<std::uint64_t>(on_m1[7] & 1) << 7);
      const std::size_t shift = base % 64;
      choice_j[base / 64] =
          (choice_j[base / 64] & ~(0xFFULL << shift)) | (bits << shift);
    }
    if (base == lo_v) break;
  }
  for (std::size_t l1 = lo_v; l1-- > 0;) {  // tail below the lag-safe region
    const i64 via_m2 = cur[l1] + s2;
    const i64 via_m1 = l1 >= s1 ? cur[l1 - s1] : kInf;
    const bool on_m1 = m1_wins_ties ? !(via_m2 < via_m1) : via_m1 < via_m2;
    cur[l1] = on_m1 ? via_m1 : via_m2;
    if (choice_j != nullptr) {
      const std::uint64_t mask = 1ULL << (l1 % 64);
      std::uint64_t& word = choice_j[l1 / 64];
      word = on_m1 ? (word | mask) : (word & ~mask);
    }
  }
}
#endif  // __x86_64__

using R2RowFn = void (*)(i64*, std::uint64_t*, std::size_t, std::size_t, i64, bool);

// The row kernel for the resolved dispatch level (sched/simd_dispatch) —
// re-read per probe (one relaxed atomic load), so a BISCHED_SIMD refresh
// retargets the very next probe.
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

// DP feasibility oracle: is there an assignment with load1 <= budget and
// load2 <= budget (in the given scaled units, arena.s1/s2)? f_j[l1] = min
// achievable load2 over the first j jobs with load1 == l1.
//
// The kernel is the in-place "pull" form of the textbook two-row DP: states
// are visited in descending l1, each new f_j[l1] reads f_{j-1} at l1 (place
// job j on machine 2) and l1 - s1[j] (machine 1), both of which still hold
// the previous row when writing top-down — so there is no second row, no
// per-row fill to infinity, and the only per-probe work is the reachable
// window itself. That window [0, hi] (0 is always reachable: every job on
// machine 2 keeps l1 at 0) grows by at most s1[j] per row instead of
// spanning the full budget width.
//
// Tie-breaking matches the seed push kernel bit for bit: there, the machine-1
// write into state l1 happened at origin l1 - s1[j] — *before* the machine-2
// write at origin l1 — so machine 1 won ties unless s1[j] == 0, in which case
// both writes happened at the same origin in body order (machine 2 first).
// On success with write_choices the assignment is reconstructed into
// arena.assignment; a value-only probe (write_choices == false) never
// touches the choice matrix — the dominant memory traffic of a probe — and
// only answers feasibility. O(n * hi) time; n * budget bits of arena memory
// are only committed by choice-writing probes.
//
// With `optimum` non-null the pass also stores the least makespan its final
// row holds, min over reachable l1 of max(l1, f[l1]), and accepts and
// reconstructs at that makespan instead of the budget. A state l1 reads only
// states <= l1, so the assignment is the one a pass at that budget gives.
bool scaled_feasible(DpArena& arena, i64 budget, bool write_choices,
                     i64* optimum = nullptr) {
  BISCHED_CHECK(budget >= 0, "negative DP budget");
  const std::size_t n = arena.s1.size();
  const auto width = static_cast<std::size_t>(budget) + 1;
  BISCHED_CHECK(static_cast<double>(n) * static_cast<double>(width) <= 2e9,
                "R2 DP table too large; reduce instance or raise eps");

  const std::size_t words = (width + 63) / 64;
  arena.cur.resize(width);
  if (write_choices) arena.choice.resize(n * words);
  // No clearing: every state inside the window is written each row, and the
  // reconstruction only reads (job, state) pairs on the reachable path —
  // stale arena contents outside the window are never observed.
  i64* cur = arena.cur.data();
  cur[0] = 0;
  std::size_t hi = 0;
  const R2RowFn row_fn = r2_row_for_level();

  for (std::size_t j = 0; j < n; ++j) {
    const auto s1 = static_cast<std::size_t>(arena.s1[j]);
    // Clamped so kInf + s2 cannot overflow; a time at kInf scale is already
    // infeasible for any budget the size guard admits.
    const i64 s2 = std::min(arena.s2[j], kInf);
    const std::size_t hi_next = std::min(width - 1, hi + s1);
    std::uint64_t* choice_j =
        write_choices ? arena.choice.data() + j * words : nullptr;

    // States above the old window are reachable only via machine 1 (their
    // machine-2 origin was unreachable last row) — and only those with an
    // origin at all (l1 >= s1); the rest of the grown window is dead.
    // Nonempty only when s1 > 0.
    for (std::size_t l1 = hi_next; l1 > hi && l1 >= s1; --l1) {
      cur[l1] = cur[l1 - s1];
      if (choice_j != nullptr) choice_j[l1 / 64] |= 1ULL << (l1 % 64);
    }
    for (std::size_t l1 = std::min(hi_next, s1 - 1) + 1; l1 > hi + 1;) {
      cur[--l1] = kInf;
    }
    // Inside the old window both origins exist; r2_row_scalar documents the
    // transition, the AVX2/AVX-512 rows are its 4- and 8-lane forms.
    row_fn(cur, choice_j, hi, s1, s2, /*m1_wins_ties=*/s1 > 0);
    hi = hi_next;
  }

  i64 accept = budget;
  if (optimum != nullptr) {
    for (std::size_t cand = 0; cand <= hi && static_cast<i64>(cand) < accept; ++cand) {
      accept = std::min(accept, std::max(static_cast<i64>(cand), cur[cand]));
    }
    *optimum = accept;
  }
  std::size_t l1 = width;
  for (std::size_t cand = 0; cand <= hi; ++cand) {
    if (arena.cur[cand] <= accept) {
      l1 = cand;
      break;
    }
  }
  if (l1 == width) return false;
  if (!write_choices) return true;

  arena.assignment.assign(n, 0);
  for (std::size_t j = n; j-- > 0;) {
    if ((arena.choice[j * words + l1 / 64] >> (l1 % 64)) & 1ULL) {
      arena.assignment[j] = 0;
      BISCHED_CHECK(l1 >= static_cast<std::size_t>(arena.s1[j]),
                    "DP reconstruction failed");
      l1 -= static_cast<std::size_t>(arena.s1[j]);
    } else {
      arena.assignment[j] = 1;
    }
  }
  return true;
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
  const R2Result ub = r2_greedy(jobs);
  if (ub.cmax == 0) return ub;

  DpArena arena;
  arena.s1.resize(jobs.size());
  arena.s2.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    arena.s1[j] = jobs[j].p1;
    arena.s2[j] = jobs[j].p2;
  }
  // One choice-writing pass at the greedy makespan finds the optimum
  // (scaled_feasible). If greedy is already optimal its own assignment is
  // kept, as the seed's search, which never accepts a smaller budget, did.
  i64 opt = 0;
  const bool ok = scaled_feasible(arena, ub.cmax, /*write_choices=*/true, &opt);
  BISCHED_CHECK(ok, "exact DP found no schedule within the greedy makespan");
  R2Result r = finalize(jobs, opt < ub.cmax ? std::move(arena.assignment)
                                            : std::vector<std::uint8_t>(ub.on_machine2));
  BISCHED_CHECK(r.cmax == opt, "exact DP produced inconsistent optimum");
  return r;
}

R2Result r2_fptas(std::span<const R2Job> jobs, double eps) {
  BISCHED_CHECK(eps > 0, "eps must be positive");
  for (const auto& job : jobs) BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0, "negative time");
  const R2Result greedy = r2_greedy(jobs);
  if (greedy.cmax == 0 || jobs.empty()) return greedy;

  const auto n = static_cast<i64>(jobs.size());
  // Lower bounds on OPT: the largest unavoidable job; half the unavoidable
  // total (two machines cannot both dodge sum_j min(p1, p2)).
  i64 lb = 1;
  i64 sum_min = 0;
  for (const auto& job : jobs) {
    lb = std::max(lb, std::min(job.p1, job.p2));
    sum_min += std::min(job.p1, job.p2);
  }
  lb = std::max(lb, (sum_min + 1) / 2);

  // feasible(T) is true for every T >= OPT: scaling by delta only shrinks
  // loads (floor), so OPT's assignment fits the scaled budget floor(T/delta).
  // On acceptance the realized loads are <= T + n*delta <= (1+eps)T.
  DpArena arena;
  arena.s1.resize(jobs.size());
  arena.s2.resize(jobs.size());
  auto feasible = [&](i64 t, bool write_choices) {
    const i64 delta = std::max<i64>(
        1, static_cast<i64>(eps * static_cast<double>(t) / static_cast<double>(n)));
    const i64 budget = t / delta;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      arena.s1[j] = jobs[j].p1 / delta;
      arena.s2[j] = jobs[j].p2 / delta;
    }
    return scaled_feasible(arena, budget, write_choices);
  };

  // Invariant: lo <= OPT (every rejected mid has OPT > mid); hence the final
  // accepted budget is <= OPT and the realized makespan <= (1+eps) OPT.
  // The search probes skip the choice matrix, about half a probe's memory
  // traffic; one terminal probe at lo writes it and reconstructs.
  i64 lo = std::min(lb, greedy.cmax), hi = greedy.cmax;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (feasible(mid, /*write_choices=*/false)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const bool ok = feasible(lo, /*write_choices=*/true);
  BISCHED_CHECK(ok, "FPTAS terminal feasibility check failed");
  return finalize(jobs, std::move(arena.assignment));
}

namespace {

R3Result r3_finalize(std::span<const R3Job> jobs, std::vector<std::uint8_t> machine_of) {
  R3Result r;
  r.machine_of = std::move(machine_of);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    switch (r.machine_of[j]) {
      case 0:
        r.loads[0] += jobs[j].p1;
        break;
      case 1:
        r.loads[1] += jobs[j].p2;
        break;
      default:
        r.loads[2] += jobs[j].p3;
        break;
    }
  }
  r.cmax = std::max({r.loads[0], r.loads[1], r.loads[2]});
  return r;
}

}  // namespace

R3Result r3_greedy(std::span<const R3Job> jobs) {
  std::vector<std::uint8_t> machine_of(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const i64 best = std::min({jobs[j].p1, jobs[j].p2, jobs[j].p3});
    machine_of[j] = jobs[j].p1 == best ? 0 : (jobs[j].p2 == best ? 1 : 2);
  }
  return r3_finalize(jobs, std::move(machine_of));
}

namespace {

// Two-dimensional trimmed DP in the seed's push form — kept deliberately:
// the reachable set of a 2-D load grid is sparse, so the `l3 == kInf`
// fast-skip beats recomputing three pull candidates per state (measured in
// bench_hotpaths; the 1-D R2 grid is dense and pulls). What changes against
// the seed: both rows and the packed choice matrix live in the caller's
// arena (no per-probe allocation or zeroing), the infinity-fill and the scan
// cover only the reachable box [0, hi1] x [0, hi2] — which grows by at most
// (s1[j], s2[j]) per row instead of spanning the full budget² grid — and
// choices are packed 2 bits per state (75% smaller, so more of the matrix
// stays in cache). Write order is the seed's, so outputs are bit-identical.
// Every probe writes its choices and reconstructs on success: the 2-bit
// writes in the sparse push loop cost less than a terminal re-probe.
bool r3_scaled_feasible(DpArena& arena, i64 budget) {
  const std::size_t n = arena.s1.size();
  const auto width = static_cast<std::size_t>(budget) + 1;
  BISCHED_CHECK(static_cast<double>(n) * static_cast<double>(width) * width <= 4e8,
                "R3 DP table too large; raise eps or shrink the instance");

  const std::size_t cells = width * width;
  const std::size_t words = (cells + 31) / 32;  // 2 bits per state
  arena.cur.resize(cells);
  arena.next.resize(cells);
  arena.choice.resize(n * words);
  arena.cur[0] = 0;
  std::size_t hi1 = 0, hi2 = 0;

  const auto set_choice = [](std::uint64_t* row, std::size_t state, std::uint64_t c) {
    const std::size_t shift = 2 * (state % 32);
    std::uint64_t& word = row[state / 32];
    word = (word & ~(3ULL << shift)) | (c << shift);
  };

  for (std::size_t j = 0; j < n; ++j) {
    const auto s1 = static_cast<std::size_t>(arena.s1[j]);
    const auto s2 = static_cast<std::size_t>(arena.s2[j]);
    const i64 s3 = std::min(arena.s3[j], kInf);  // kInf + s3 must not overflow
    const std::size_t hi1n = std::min(width - 1, hi1 + s1);
    const std::size_t hi2n = std::min(width - 1, hi2 + s2);
    std::uint64_t* choice_j = arena.choice.data() + j * words;
    i64* cur = arena.cur.data();
    i64* next = arena.next.data();

    // Only the box a transition can land in needs the infinity fill; the
    // grid beyond it holds stale probes and is never read.
    for (std::size_t l1 = 0; l1 <= hi1n; ++l1) {
      std::fill(next + l1 * width, next + l1 * width + hi2n + 1, kInf);
    }
    for (std::size_t l1 = 0; l1 <= hi1; ++l1) {
      for (std::size_t l2 = 0; l2 <= hi2; ++l2) {
        const i64 l3 = cur[l1 * width + l2];
        if (l3 == kInf) continue;
        // Machine 3. A load3 beyond the budget is a dead end — no later job
        // shrinks it — so it is pruned to kInf here rather than propagated.
        // Feasibility, the accepted state scan, and every choice bit the
        // reconstruction can read are unchanged (a state is only ever on the
        // reconstruction path while its load3 is within budget); what the
        // pruning buys is more kInf states for the skip above. The seed
        // kernel propagated these dead loads through every remaining row.
        const i64 n3 = l3 + s3;
        if (n3 <= budget && n3 < next[l1 * width + l2]) {
          next[l1 * width + l2] = n3;
          set_choice(choice_j, l1 * width + l2, 2);
        }
        // Machine 1.
        const std::size_t n1 = l1 + s1;
        if (n1 < width && l3 < next[n1 * width + l2]) {
          next[n1 * width + l2] = l3;
          set_choice(choice_j, n1 * width + l2, 0);
        }
        // Machine 2.
        const std::size_t n2 = l2 + s2;
        if (n2 < width && l3 < next[l1 * width + n2]) {
          next[l1 * width + n2] = l3;
          set_choice(choice_j, l1 * width + n2, 1);
        }
      }
    }
    arena.cur.swap(arena.next);
    hi1 = hi1n;
    hi2 = hi2n;
  }

  std::size_t best_l1 = width, best_l2 = width;
  for (std::size_t l1 = 0; l1 <= hi1 && best_l1 == width; ++l1) {
    for (std::size_t l2 = 0; l2 <= hi2; ++l2) {
      if (arena.cur[l1 * width + l2] <= budget) {
        best_l1 = l1;
        best_l2 = l2;
        break;
      }
    }
  }
  if (best_l1 == width) return false;

  arena.assignment.assign(n, 0);
  std::size_t l1 = best_l1;
  std::size_t l2 = best_l2;
  for (std::size_t j = n; j-- > 0;) {
    const std::size_t state = l1 * width + l2;
    const auto c = static_cast<std::uint8_t>(
        (arena.choice[j * words + state / 32] >> (2 * (state % 32))) & 3ULL);
    BISCHED_CHECK(c <= 2, "R3 DP reconstruction hit an unreachable state");
    arena.assignment[j] = c;
    if (c == 0) {
      l1 -= static_cast<std::size_t>(arena.s1[j]);
    } else if (c == 1) {
      l2 -= static_cast<std::size_t>(arena.s2[j]);
    }
  }
  return true;
}

}  // namespace

R3Result r3_fptas(std::span<const R3Job> jobs, double eps) {
  BISCHED_CHECK(eps > 0, "eps must be positive");
  for (const auto& job : jobs) {
    BISCHED_CHECK(job.p1 >= 0 && job.p2 >= 0 && job.p3 >= 0, "negative time");
  }
  const R3Result greedy = r3_greedy(jobs);
  if (greedy.cmax == 0 || jobs.empty()) return greedy;

  const auto n = static_cast<i64>(jobs.size());
  i64 lb = 1;
  i64 sum_min = 0;
  for (const auto& job : jobs) {
    const i64 mn = std::min({job.p1, job.p2, job.p3});
    lb = std::max(lb, mn);
    sum_min += mn;
  }
  lb = std::max(lb, (sum_min + 2) / 3);

  DpArena arena;
  arena.s1.resize(jobs.size());
  arena.s2.resize(jobs.size());
  arena.s3.resize(jobs.size());
  auto feasible = [&](i64 t) {
    const i64 delta = std::max<i64>(
        1, static_cast<i64>(eps * static_cast<double>(t) / static_cast<double>(n)));
    const i64 budget = t / delta;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      arena.s1[j] = jobs[j].p1 / delta;
      arena.s2[j] = jobs[j].p2 / delta;
      arena.s3[j] = jobs[j].p3 / delta;
    }
    return r3_scaled_feasible(arena, budget);
  };

  i64 lo = std::min(lb, greedy.cmax), hi = greedy.cmax;
  bool accepted = false;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
      accepted = true;
    } else {
      lo = mid + 1;
    }
  }
  // The last accepted probe was at t == lo and left its assignment in the
  // arena; only a search that never accepted probes lo here.
  if (!accepted) {
    const bool ok = feasible(lo);
    BISCHED_CHECK(ok, "R3 FPTAS terminal feasibility check failed");
  }
  return r3_finalize(jobs, std::move(arena.assignment));
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
