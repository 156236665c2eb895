#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool Tail::supported() const { return beyond >= kMinBeyond; }

Tail tail_at(std::vector<double> values, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const double exact = percentile / 100.0 * static_cast<double>(values.size());
  // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  t.value = values[rank - 1];
  t.beyond = values.size() - rank;
  return t;
}

Tail highest_supported_tail(const std::vector<double>& values) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    Tail t = tail_at(values, p);
    if (t.supported()) return t;
  }
  return tail_at(values, 50.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
