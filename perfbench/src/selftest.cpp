// The benchmark's own tests (`perfbench_runner --selftest`): stream
// determinism, the reference lower bounds and makespan_ratio on
// hand-checked instances, the output checks, and the tail-percentile rule.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "check.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"
#include "stats.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

// FNV-1a over every byte the workload would send for requests [0, n) plus
// its warm-up pass.
std::uint64_t stream_digest(const std::string& name, std::uint64_t seed, std::uint64_t n) {
  const auto w = Workload::make(name, seed);
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&](const std::string& bytes) {
    for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  };
  for (const GenInstance& g : w->warmup()) fold(g.text);
  for (std::uint64_t k = 0; k < n; ++k) fold(w->frame(k));
  return h;
}

GenInstance uniform_instance(std::vector<std::int64_t> p, std::vector<std::int64_t> speeds,
                             const std::vector<std::pair<int, int>>& edges) {
  bisched::Graph g(static_cast<int>(p.size()));
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  GenInstance out;
  out.uniform = bisched::make_uniform_instance(std::move(p), std::move(speeds), std::move(g));
  return out;
}

GenInstance r2_instance(std::vector<std::vector<std::int64_t>> times) {
  GenInstance out;
  out.family = Family::kR2;
  const int n = static_cast<int>(times[0].size());
  out.unrelated = bisched::make_unrelated_instance(std::move(times), bisched::Graph(n));
  return out;
}

Sample reply(const std::string& line) {
  Sample s;
  s.sent_ns = 1;
  s.replied_ns = 2;
  s.reply = line;
  return s;
}

std::string ok_reply(const std::string& id, const std::string& hash, const std::string& makespan,
                     const std::string& solver, const std::string& tier) {
  return "{\"v\": 1, \"id\": \"" + id + "\", \"seq\": 0, \"status\": \"ok\", \"hash\": \"" + hash +
         "\", \"cache\": \"" + tier + "\", \"solve_cache\": \"" + tier + "\", \"solver\": \"" +
         solver + "\", \"makespan\": \"" + makespan + "\"}";
}

void test_determinism() {
  const std::uint64_t sizes[] = {300, 48, 600};
  std::size_t i = 0;
  for (const std::string& name : Workload::names()) {
    const std::uint64_t n = sizes[i++];
    const std::uint64_t a = stream_digest(name, 7, n);
    expect(a == stream_digest(name, 7, n), name + ": seed 7 gives a byte-identical stream");
    expect(a != stream_digest(name, 8, n), name + ": seeds 7 and 8 give different streams");
  }
}

void test_rendered_text() {
  // The text the program receives parses back to the instance the checks
  // hash, for every family.
  Prng rng(42);
  const GenInstance gens[] = {gen_gilbert(rng, 40, 4), gen_crown(rng, 12), gen_r2(rng, 30, 1000),
                              gen_small_uniform(rng, 16)};
  for (const GenInstance& g : gens) {
    std::istringstream in(g.text);
    const bisched::ParsedInstance parsed = bisched::parse_instance(in);
    const std::string hash =
        !parsed.ok() ? "parse error: " + parsed.error
        : parsed.uniform.has_value() ? bisched::hash_hex(bisched::instance_hash(*parsed.uniform))
                                     : bisched::hash_hex(bisched::instance_hash(*parsed.unrelated));
    expect(hash == expected_hash(g),
           std::string(family_name(g.family)) + ": rendered text parses to the same hash");
  }
  const std::string frame = json_frame("k1", "a\nb\"c\\");
  expect(json_string(frame, "instance").value_or("") == "a\nb\"c\\",
         "json_frame escapes round-trip through json_string");
}

void test_lower_bounds() {
  // R2: max(max_j min_i t_ij, ceil(sum_j min_i t_ij / 2)).
  expect(reference_lower_bound(r2_instance({{3, 5, 2}, {4, 1, 6}})) == bisched::Rational(3),
         "R2 bound: mins 3,1,2 -> max(3, ceil(6/2)) = 3");
  expect(reference_lower_bound(r2_instance({{2, 2, 3}, {5, 5, 5}})) == bisched::Rational(4),
         "R2 bound: mins 2,2,3 -> max(3, ceil(7/2)) = 4");
  expect(reference_lower_bound(r2_instance({{7, 2, 4}, {9, 3, 1}})) == bisched::Rational(7),
         "R2 bound: mins 7,2,1 -> max(7, ceil(10/2)) = 7");
  // Q: p = (6, 1, 1) on two unit-speed machines, job 0 conflicting with
  // both others. Job 0 alone needs 6, and 6 is achievable: bound = OPT = 6.
  expect(reference_lower_bound(uniform_instance({6, 1, 1}, {1, 1}, {{0, 1}, {0, 2}})) ==
             bisched::Rational(6),
         "Q bound: pmax 6 on speed 1 = 6");
  // Q: p = (4, 4) on speeds (2, 2): total work 8 over capacity 4 per unit time.
  expect(reference_lower_bound(uniform_instance({4, 4}, {2, 2}, {})) == bisched::Rational(2),
         "Q bound: work 8 on speeds 2+2 = 2");
  // Q: p = (3, 3, 3) on speeds (2, 1): cover-all gives 9/3 = 3, pmax 3/2.
  expect(reference_lower_bound(uniform_instance({3, 3, 3}, {2, 1}, {})) == bisched::Rational(3),
         "Q bound: work 9 on speeds 2+1 = 3");
}

void test_checker() {
  const GenInstance six = uniform_instance({6, 1, 1}, {1, 1}, {{0, 1}, {0, 2}});
  const GenInstance r2 = r2_instance({{7, 2, 4}, {9, 3, 1}});
  const std::string h6 = expected_hash(six);
  const std::string h7 = expected_hash(r2);
  Checker c;
  const auto get6 = [&] { return six; };
  const auto get7 = [&] { return r2; };
  expect(c.check(reply(ok_reply("k0", h6, "9", "alg1", "miss")), "k0", 1, get6, false),
         "checker accepts a correct reply");
  expect(c.check(reply(ok_reply("k1", h7, "14", "r2exact", "miss")), "k1", 2, get7, false),
         "checker accepts a second instance");
  // makespan_ratio = geomean(9/6, 14/7) = sqrt(3).
  expect(near(c.makespan_ratio(), std::sqrt(3.0)), "makespan_ratio = geomean(1.5, 2) = sqrt(3)");
  expect(c.check(reply(ok_reply("k2", h6, "9", "alg1", "hit-memory")), "k2", 1, get6, true),
         "checker accepts a consistent repeat");
  expect(near(c.makespan_ratio(), std::sqrt(3.0)), "a repeat does not enter makespan_ratio");
  expect(c.failed() == 0, "no failures so far");

  expect(!c.check(reply(ok_reply("k3", h6, "8", "alg1", "hit-memory")), "k3", 1, get6, false),
         "checker rejects a repeat with another makespan");
  expect(!c.check(reply(ok_reply("k4", h6, "9", "exact", "hit-memory")), "k4", 1, get6, false),
         "checker rejects a repeat with another solver");
  expect(!c.check(reply(ok_reply("k5", h6, "9", "alg1", "miss")), "k5", 1, get6, true),
         "checker rejects a miss where hits are demanded");
  const GenInstance other = uniform_instance({4, 4}, {2, 2}, {});
  expect(!c.check(reply(ok_reply("k6", h6, "2", "alg1", "miss")), "k6", 3, [&] { return other; }, false),
         "checker rejects a wrong hash");
  expect(!c.check(reply(ok_reply("k7", expected_hash(other), "3/2", "alg1", "miss")), "k7", 4,
                  [&] { return other; }, false),
         "checker rejects a makespan below the lower bound");
  expect(!c.check(reply(ok_reply("k9", h6, "9", "alg1", "miss")), "k8", 1, get6, false),
         "checker rejects a reply to another id");
  expect(!c.check(reply("{\"id\": \"k8\", \"status\": \"error\", \"error\": \"x\"}"), "k8", 1,
                  get6, false),
         "checker rejects an error reply");
  Sample lost;
  expect(!c.check(lost, "k10", 1, get6, false), "checker rejects a missing reply");
  expect(c.failed() == 8 && c.attempted() == 11, "failures and attempts are counted");
  expect(parse_rational("395/8") == bisched::Rational(395, 8) && !parse_rational("3/").has_value() &&
             !parse_rational("x").has_value(),
         "makespan strings parse as rationals");
}

void test_tail_rule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Tail t = tail_at(hundred, 90);
  expect(t.value == 90 && t.beyond == 10 && t.samples == 100 && t.supported(),
         "p90 of 1..100 is 90 with 10 beyond");
  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  t = tail_at(ninety_nine, 90);
  expect(t.beyond == 9 && !t.supported(), "p90 of 99 samples has 9 beyond: unsupported");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);
  t = tail_at(thousand, 99);
  expect(t.value == 990 && t.beyond == 10 && t.supported(), "p99 of 1000 samples has 10 beyond");
  std::vector<double> fifty(hundred.begin(), hundred.begin() + 50);
  t = highest_supported_tail(fifty);
  expect(t.percentile == 75 && t.beyond == 12, "50 samples support p75 (12 beyond), not p90");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median of odd and even samples");
}

}  // namespace

int run_selftest() {
  test_determinism();
  test_rendered_text();
  test_lower_bounds();
  test_checker();
  test_tail_rule();
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
