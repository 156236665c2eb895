#include "workload.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <utility>

#include "sched/instance_hash.hpp"
#include "sched/lower_bounds.hpp"

namespace perfbench {

using bisched::Graph;
using bisched::Rational;

namespace {

// PRNG stream tags: each use of the seed draws from its own stream, so
// adding a draw to one cannot shift another.
constexpr std::uint64_t kTagPool = 1;
constexpr std::uint64_t kTagStream = 2;
constexpr std::uint64_t kTagFresh = 3;
constexpr std::uint64_t kTagWarm = 4;
constexpr std::uint64_t kTagCalib = 5;

// Instance keys: pool entries use their index; the other spaces are offset.
constexpr std::uint64_t kFreshKey = 1ull << 40;
constexpr std::uint64_t kWarmKey = 1ull << 50;

// Gilbert density a/n with a = 2, the repo's `gen gilbert` default.
constexpr double kGilbertA = 2.0;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_ints(std::string& out, const std::vector<std::int64_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    append_int(out, values[i]);
  }
}

using Edges = std::vector<std::pair<int, int>>;

void append_edges(std::string& out, const Edges& edges) {
  out += "edges ";
  append_int(out, static_cast<std::int64_t>(edges.size()));
  out += '\n';
  for (const auto& [u, v] : edges) {
    append_int(out, u);
    out += ' ';
    append_int(out, v);
    out += '\n';
  }
}

Graph graph_of(int vertices, const Edges& edges) {
  Graph g(vertices);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

GenInstance make_uniform(Family family, std::vector<std::int64_t> p,
                         std::vector<std::int64_t> speeds, const Edges& edges) {
  std::sort(speeds.begin(), speeds.end(), std::greater<>());
  GenInstance g;
  g.family = family;
  std::string& t = g.text;
  t += "bisched uniform v1\njobs ";
  append_int(t, static_cast<std::int64_t>(p.size()));
  t += "\np ";
  append_ints(t, p);
  t += "\nspeeds ";
  append_int(t, static_cast<std::int64_t>(speeds.size()));
  t += '\n';
  append_ints(t, speeds);
  t += '\n';
  append_edges(t, edges);
  const int n = static_cast<int>(p.size());
  g.uniform = bisched::make_uniform_instance(std::move(p), std::move(speeds),
                                             graph_of(n, edges));
  return g;
}

Edges gilbert_edges(Prng& rng, int side) {
  const double p = kGilbertA / side;
  Edges edges;
  for (int u = 0; u < side; ++u) {
    for (int v = 0; v < side; ++v) {
      if (rng.unit() < p) edges.emplace_back(u, side + v);
    }
  }
  return edges;
}

GenInstance gilbert_like(Family family, Prng& rng, int side, int machines) {
  Edges edges = gilbert_edges(rng, side);
  std::vector<std::int64_t> speeds(static_cast<std::size_t>(machines));
  for (auto& s : speeds) s = rng.range(1, 8);
  return make_uniform(family, std::vector<std::int64_t>(2 * side, 1), std::move(speeds),
                      edges);
}

}  // namespace

Prng Prng::derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  return Prng(mix(mix(mix(seed) ^ tag) ^ index));
}

std::uint64_t Prng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Prng::below(std::uint64_t n) {
  // Multiply-shift; the bias at these n (< 2^20) is far below anything measured.
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
}

std::int64_t Prng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Prng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

const char* family_name(Family f) {
  switch (f) {
    case Family::kGilbert: return "gilbert";
    case Family::kCrown: return "crown";
    case Family::kR2: return "r2";
    case Family::kSmallUniform: return "small-uniform";
  }
  return "?";
}

GenInstance gen_gilbert(Prng& rng, int side, int machines) {
  return gilbert_like(Family::kGilbert, rng, side, machines);
}

GenInstance gen_small_uniform(Prng& rng, int side) {
  return gilbert_like(Family::kSmallUniform, rng, side, 4);
}

GenInstance gen_crown(Prng& rng, int side) {
  std::vector<std::int64_t> p(2 * side);
  for (auto& x : p) x = rng.range(1, 10);
  Edges edges;
  for (int u = 0; u < side; ++u) {
    for (int v = 0; v < side; ++v) {
      if (u != v) edges.emplace_back(u, side + v);
    }
  }
  return make_uniform(Family::kCrown, std::move(p), std::vector<std::int64_t>(4, 2), edges);
}

GenInstance gen_r2(Prng& rng, int side, std::int64_t tmax) {
  const int n = 2 * side;
  std::vector<std::vector<std::int64_t>> times(2, std::vector<std::int64_t>(n));
  for (auto& row : times) {
    for (auto& x : row) x = rng.range(0, tmax);
  }
  // side/2 distinct conflicts between the two halves.
  std::vector<std::uint64_t> picked;
  Edges edges;
  while (static_cast<int>(edges.size()) < side / 2) {
    const int u = static_cast<int>(rng.below(side));
    const int v = static_cast<int>(rng.below(side));
    const std::uint64_t id = static_cast<std::uint64_t>(u) * side + v;
    if (std::find(picked.begin(), picked.end(), id) != picked.end()) continue;
    picked.push_back(id);
    edges.emplace_back(u, side + v);
  }
  GenInstance g;
  g.family = Family::kR2;
  std::string& t = g.text;
  t += "bisched unrelated v1\njobs ";
  append_int(t, n);
  t += "\nmachines 2\ntimes\n";
  for (const auto& row : times) {
    append_ints(t, row);
    t += '\n';
  }
  append_edges(t, edges);
  g.unrelated = bisched::make_unrelated_instance(std::move(times), graph_of(n, edges));
  return g;
}

std::string expected_hash(const GenInstance& g) {
  return bisched::hash_hex(g.uniform.has_value() ? bisched::instance_hash(*g.uniform)
                                                 : bisched::instance_hash(*g.unrelated));
}

Rational reference_lower_bound(const GenInstance& g) {
  if (g.uniform.has_value()) return bisched::lower_bound(*g.uniform);
  const auto& times = g.unrelated->times;
  std::int64_t max_min = 0;
  std::int64_t sum_min = 0;
  for (std::size_t j = 0; j < times[0].size(); ++j) {
    const std::int64_t m = std::min(times[0][j], times[1][j]);
    max_min = std::max(max_min, m);
    sum_min += m;
  }
  return Rational(std::max(max_min, (sum_min + 1) / 2));
}

std::string json_frame(const std::string& id, const std::string& text) {
  std::string f;
  f.reserve(text.size() + text.size() / 8 + id.size() + 32);
  f += "{\"id\": \"";
  f += id;
  f += "\", \"instance\": \"";
  for (char c : text) {
    switch (c) {
      case '\n': f += "\\n"; break;
      case '"': f += "\\\""; break;
      case '\\': f += "\\\\"; break;
      default: f += c;
    }
  }
  f += "\"}\n";
  return f;
}

// ------------------------------------------------------------- workloads ---

namespace {

// cold-mix repeats this pattern of 24 families, so every run sends the same
// shares — half R2 DPs, three eighths Algorithm-1 instances, one eighth
// exact-search fall-throughs — evenly spaced, so where the timed window
// happens to end barely moves the mix it measured.
constexpr std::array<Family, 24> kColdPattern = {
    Family::kR2, Family::kGilbert, Family::kR2, Family::kCrown,
    Family::kR2, Family::kGilbert, Family::kR2, Family::kSmallUniform,
    Family::kR2, Family::kCrown,   Family::kR2, Family::kGilbert,
    Family::kR2, Family::kCrown,   Family::kR2, Family::kSmallUniform,
    Family::kR2, Family::kGilbert, Family::kR2, Family::kCrown,
    Family::kR2, Family::kGilbert, Family::kR2, Family::kSmallUniform};

// Request k's place among the cold-mix requests of its family.
std::uint64_t cold_occurrence(std::uint64_t k) {
  const std::size_t at = k % kColdPattern.size();
  std::uint64_t per_pattern = 0;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kColdPattern.size(); ++i) {
    if (kColdPattern[i] != kColdPattern[at]) continue;
    ++per_pattern;
    if (i < at) ++before;
  }
  return k / kColdPattern.size() * per_pattern + before;
}

// The j-th size of [lo, hi]: j times the golden ratio, mod 1, spreads any
// run of consecutive j evenly over the range, so every run sends the same
// size mix and the seed only changes the instances' contents.
int spread_size(std::uint64_t j, int lo, int hi) {
  const double f = std::fmod(static_cast<double>(j) * 0.6180339887498949, 1.0);
  return lo + std::min(hi - lo, static_cast<int>(f * (hi - lo + 1)));
}

// cold-mix sizes per side: R2 140..300 jobs (the DP's 20-90 ms band),
// Algorithm-1 instances above the exact solver's 64-job cap (crown bodies
// ~60-75 KB), and exact-search instances of 32..64 jobs.
GenInstance cold_instance(std::uint64_t k, Prng& rng) {
  const std::uint64_t j = cold_occurrence(k);
  switch (kColdPattern[k % kColdPattern.size()]) {
    case Family::kR2: return gen_r2(rng, spread_size(j, 70, 150), 1000);
    case Family::kGilbert: return gen_gilbert(rng, spread_size(j, 100, 400), 4);
    case Family::kCrown: return gen_crown(rng, spread_size(j, 90, 105));
    case Family::kSmallUniform: return gen_small_uniform(rng, spread_size(j, 16, 32));
  }
  return {};
}

// routed-mix: instances of at most 32 jobs whose solves take well under
// 1 ms. Two machines for gilbert (the Theorem-4 unit DP) and times up to 50
// for R2: on four machines the exact search spends 7-190 ms on a 16-job
// gilbert instance, and at times up to 1000 the R2 DP 0.6-4 ms.
GenInstance routed_instance(Prng& rng) {
  switch (rng.below(3)) {
    case 0: return gen_gilbert(rng, 8, 2);
    case 1: return gen_crown(rng, 8);
    default: return gen_r2(rng, 16, 50);
  }
}

constexpr std::size_t kWarmPool = 64;
constexpr std::size_t kRoutedPool = 256;

}  // namespace

const std::vector<std::string>& Workload::names() {
  static const std::vector<std::string> kNames = {"warm-hits", "cold-mix", "routed-mix"};
  return kNames;
}

std::unique_ptr<Workload> Workload::make(const std::string& name, std::uint64_t seed) {
  std::unique_ptr<Workload> w(new Workload());
  w->name_ = name;
  w->seed_ = seed;
  if (name == "warm-hits") {
    w->tail_percentile_ = 95;
    w->per_window_ = true;
    w->one_cpu_ = true;
    w->rss_at_ = 20000;
    w->expects_hits_ = true;
    w->pool_is_warmup_ = true;
    for (std::size_t i = 0; i < kWarmPool; ++i) {
      Prng rng = Prng::derive(seed, kTagPool, i);
      w->pool_.push_back(gen_gilbert(rng, 400, 4));
    }
  } else if (name == "cold-mix") {
    w->tail_percentile_ = 90;
    w->rss_at_ = 200;
    // The warm-up pass is the pattern's first eight families (fresh
    // instances from their own stream): every solver path runs, and the
    // exact fall-through makes set-up mostly compute, not process start.
    for (std::size_t i = 0; i < 8; ++i) {
      Prng rng = Prng::derive(seed, kTagWarm, i);
      w->warmup_.push_back(cold_instance(i, rng));
    }
  } else if (name == "routed-mix") {
    w->tail_percentile_ = 95;
    w->per_window_ = true;
    w->one_cpu_ = true;
    w->rss_at_ = 20000;
    w->routed_ = true;
    w->pool_is_warmup_ = true;
    for (std::size_t i = 0; i < kRoutedPool; ++i) {
      Prng rng = Prng::derive(seed, kTagPool, i);
      w->pool_.push_back(routed_instance(rng));
    }
  } else {
    return nullptr;
  }
  for (const GenInstance& g : w->pool_) w->pool_escaped_.push_back(json_frame("", g.text));
  if (w->pool_is_warmup_) w->warmup_ = w->pool_;
  return w;
}

std::uint64_t Workload::key(std::uint64_t k) const {
  if (name_ == "warm-hits") return Prng::derive(seed_, kTagStream, k).below(pool_.size());
  if (name_ == "routed-mix") {
    Prng rng = Prng::derive(seed_, kTagStream, k);
    if (rng.below(2) == 0) return rng.below(pool_.size());
  }
  return kFreshKey | k;
}

GenInstance Workload::instance(std::uint64_t k) const {
  const std::uint64_t id = key(k);
  if (id < pool_.size()) return pool_[id];
  Prng rng = Prng::derive(seed_, kTagFresh, k);
  if (name_ == "cold-mix") return cold_instance(k, rng);
  return routed_instance(rng);
}

std::string Workload::frame(std::uint64_t k) const {
  const std::string id = "k" + std::to_string(k);
  const std::uint64_t pooled = key(k);
  if (pooled < pool_.size()) {
    // Splice the id into the pre-escaped frame `{"id": "", ...`.
    std::string f = pool_escaped_[pooled];
    f.insert(8, id);
    return f;
  }
  return json_frame(id, instance(k).text);
}

std::uint64_t Workload::warmup_key(std::size_t i) const {
  return pool_is_warmup_ ? i : (kWarmKey | i);
}

std::vector<GenInstance> Workload::calibration(Family family, int count) const {
  std::vector<GenInstance> out;
  for (int i = 0; i < count; ++i) {
    Prng rng = Prng::derive(seed_, kTagCalib,
                            static_cast<std::uint64_t>(family) * 1000 + static_cast<std::uint64_t>(i));
    // The smallest size cold-mix sends to the kernel in question.
    switch (family) {
      case Family::kR2: out.push_back(gen_r2(rng, 70, 1000)); break;
      case Family::kSmallUniform: out.push_back(gen_small_uniform(rng, 16)); break;
      default: out.push_back(gen_gilbert(rng, 100, 4)); break;
    }
  }
  return out;
}

}  // namespace perfbench
