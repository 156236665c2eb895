// Shared helpers for the test suites: random instance builders and exact
// ratio assertions.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "random/generators.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/prng.hpp"
#include "util/rational.hpp"

namespace bisched::testing {

// Random bipartite uniform instance: part sizes a x b, edge count up to half
// of a*b, weights in [1, wmax], speeds in [1, smax].
inline UniformInstance random_uniform_instance(int a, int b, int m, std::int64_t wmax,
                                               std::int64_t smax, Rng& rng) {
  const std::int64_t max_edges = static_cast<std::int64_t>(a) * b;
  Graph g = random_bipartite_edges(a, b, rng.uniform_int(0, max_edges / 2), rng);
  std::vector<std::int64_t> p(static_cast<std::size_t>(a + b));
  for (auto& x : p) x = rng.uniform_int(1, wmax);
  std::vector<std::int64_t> speeds(static_cast<std::size_t>(m));
  for (auto& s : speeds) s = rng.uniform_int(1, smax);
  return make_uniform_instance(std::move(p), std::move(speeds), std::move(g));
}

// Random bipartite unrelated instance on two machines.
inline UnrelatedInstance random_r2_instance(int a, int b, std::int64_t tmax, Rng& rng) {
  const std::int64_t max_edges = static_cast<std::int64_t>(a) * b;
  Graph g = random_bipartite_edges(a, b, rng.uniform_int(0, max_edges / 2), rng);
  std::vector<std::vector<std::int64_t>> times(2);
  for (auto& row : times) {
    row.resize(static_cast<std::size_t>(a + b));
    for (auto& t : row) t = rng.uniform_int(0, tmax);
  }
  return make_unrelated_instance(std::move(times), std::move(g));
}

// The two instances whose FPTAS tables pass the R2 size guard (r2_fptas):
// 20 000 edgeless R2 jobs with times in [1, 1000] (alg5 at the default eps),
// and 50 000 edgeless uniform jobs on speeds 4 3 2 1 (alg1's S1 at eps = 1).
// The guard is decided before the table is allocated, so both are cheap.
inline UnrelatedInstance oversized_fptas_r2_instance(Rng& rng) {
  std::vector<std::vector<std::int64_t>> times(2, std::vector<std::int64_t>(20'000));
  for (auto& row : times) {
    for (auto& t : row) t = rng.uniform_int(1, 1000);
  }
  return make_unrelated_instance(std::move(times), Graph(20'000));
}

inline UniformInstance oversized_fptas_uniform_instance(Rng& rng) {
  std::vector<std::int64_t> p(50'000);
  for (auto& x : p) x = rng.uniform_int(1, 100);
  return make_uniform_instance(std::move(p), {4, 3, 2, 1}, Graph(50'000));
}

// Asserts x <= sqrt(bound) * y exactly: x^2 <= bound * y^2 over rationals.
inline void expect_le_sqrt_times(const Rational& x, std::int64_t bound, const Rational& y,
                                 const char* context) {
  const Rational lhs = x * x;
  const Rational rhs = y * y * Rational(bound);
  EXPECT_LE(lhs.to_double(), rhs.to_double() * (1 + 1e-12)) << context;
  EXPECT_TRUE(lhs <= rhs) << context << ": " << x.to_string() << "^2 > " << bound << " * "
                          << y.to_string() << "^2";
}

}  // namespace bisched::testing
