// Order statistics for latency samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

double median(std::vector<double> values);  // 0 for an empty sample

// Nearest-rank percentile p of a sample: rank r = ceil(p/100 * n), value =
// the r-th smallest, and `beyond` = n - r samples lie past it. A tail is
// reportable only with at least kMinBeyond samples beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported() const;
};
inline constexpr std::size_t kMinBeyond = 10;

Tail tail_at(std::vector<double> values, double percentile);
// The highest of p99, p95, p90, p75 and p50 the sample supports (p50 when
// none does; check supported()).
Tail highest_supported_tail(const std::vector<double>& values);

double geomean(const std::vector<double>& values);  // of positive values

}  // namespace perfbench
