// Seeded workload generation: the instances, the request stream and the
// reference values (content hash, lower bound) the output checks use.
//
// Everything here is the benchmark's own: its PRNG, its instance families
// and its text renderer do not call the library's generators or writer, so
// a change to those cannot silently change what the benchmark sends. The
// library is used only to build the in-memory instance the checks hash and
// bound (sched/instance_hash, sched/lower_bounds).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/instance.hpp"
#include "util/rational.hpp"

namespace perfbench {

// splitmix64 stream; `derive` gives independent streams per (seed, tag, index).
class Prng {
 public:
  explicit Prng(std::uint64_t state) : state_(state) {}
  static Prng derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t index);

  std::uint64_t next();
  std::uint64_t below(std::uint64_t n);                  // uniform in [0, n)
  std::int64_t range(std::int64_t lo, std::int64_t hi);  // uniform in [lo, hi]
  double unit();                                         // uniform in [0, 1)

 private:
  std::uint64_t state_;
};

enum class Family {
  kGilbert,       // G(n,n,2/n) conflicts, unit jobs, speeds 1..8
  kCrown,         // crown graph, jobs 1..10, four speed-2 machines
  kR2,            // two unrelated machines, times 0..tmax, n/2 conflicts
  kSmallUniform,  // gilbert, m = 4, <= 64 jobs: the exact-search fall-through
};
const char* family_name(Family f);

struct GenInstance {
  Family family = Family::kGilbert;
  std::optional<bisched::UniformInstance> uniform;
  std::optional<bisched::UnrelatedInstance> unrelated;
  std::string text;  // native instance text: all the program ever receives
};

// The families at a given size per side (jobs = 2 * side).
GenInstance gen_gilbert(Prng& rng, int side, int machines);
GenInstance gen_crown(Prng& rng, int side);
GenInstance gen_r2(Prng& rng, int side, std::int64_t tmax);
GenInstance gen_small_uniform(Prng& rng, int side);

// 16 lowercase hex digits of the library's instance_hash of the in-memory
// instance the text was rendered from.
std::string expected_hash(const GenInstance& g);

// Q: sched/lower_bounds. R2: max(max_j min_i t_ij, ceil(sum_j min_i t_ij / 2)).
bisched::Rational reference_lower_bound(const GenInstance& g);

// One JSON `instance` request frame, newline-terminated.
std::string json_frame(const std::string& id, const std::string& text);

class Workload {
 public:
  // nullptr for an unknown name.
  static std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed);
  static const std::vector<std::string>& names();

  const std::string& name() const { return name_; }
  // The fixed tail percentile latency_tail_ms reports: p95 for the
  // sub-millisecond workloads, whose p99 follows the host's steal more than
  // the program (README.md has the measurements), p90 on cold-mix.
  double tail_percentile() const { return tail_percentile_; }
  // Enough replies per 0.5 s interval for its own tail: the timed phase's
  // figures are medians over intervals; otherwise intervals are pooled.
  bool per_window() const { return per_window_; }
  // The timed request index at which server_rss_mb is read.
  std::uint64_t rss_at() const { return rss_at_; }
  bool routed() const { return routed_; }
  // The benchmark and the programs it starts share one CPU (see CpuPin):
  // the sub-millisecond workloads, whose requests hop between threads and
  // processes several times. Across CPUs each hop may wait for the
  // hypervisor to wake an idle vCPU, and on a shared host that wait, not
  // the program, sets the figures.
  bool one_cpu() const { return one_cpu_; }
  // Every timed reply must come from the memory result cache.
  bool expects_hits() const { return expects_hits_; }

  // Identity of the instance request k sends: equal keys = identical text.
  std::uint64_t key(std::uint64_t k) const;
  // The instance request k sends (generated on demand; pooled ones copied).
  GenInstance instance(std::uint64_t k) const;
  // Request k as a wire frame with id "k<k>".
  std::string frame(std::uint64_t k) const;

  // The warm-up pass, sent once before timing (ids "w<i>", keys warmup_key).
  const std::vector<GenInstance>& warmup() const { return warmup_; }
  std::uint64_t warmup_key(std::size_t i) const;
  // Kernel calibration instances (see ledger.hpp).
  std::vector<GenInstance> calibration(Family family, int count) const;

 private:
  Workload() = default;

  std::string name_;
  std::uint64_t seed_ = 0;
  double tail_percentile_ = 99;
  bool per_window_ = false;
  std::uint64_t rss_at_ = 0;
  bool routed_ = false;
  bool one_cpu_ = false;
  bool expects_hits_ = false;
  bool pool_is_warmup_ = false;
  std::vector<GenInstance> pool_;
  std::vector<std::string> pool_escaped_;
  std::vector<GenInstance> warmup_;
};

}  // namespace perfbench
