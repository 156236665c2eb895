// Output checks: every reply is compared with the benchmark's own reference
// values for the instance it answers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/rational.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace perfbench {

// "a/b" or "a" as the wire writes makespans; nullopt when malformed.
std::optional<bisched::Rational> parse_rational(const std::string& s);

// A reply passes when its status is ok, its id and content hash match the
// request, its makespan is at least the lower bound, it comes from the
// memory result cache where the workload demands hits, and — for an
// instance asked before, on any program of the run — its makespan and
// solver equal the first answer.
class Checker {
 public:
  // `instance` is called only the first time a key is seen.
  bool check(const Sample& s, const std::string& id, std::uint64_t key,
             const std::function<GenInstance()>& instance, bool expect_hit);
  // Records a failure found outside a reply (the traced run's checks).
  void fail(const std::string& why);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }  // first ten
  // Geometric mean over distinct instances of makespan / lower bound.
  double makespan_ratio() const;
  // The first makespan the program answered for `key`, or nullptr.
  const std::string* makespan(std::uint64_t key) const;

 private:
  struct Reference {
    std::string hash;
    bisched::Rational lower_bound;
  };
  struct FirstReply {
    std::string makespan;
    std::string solver;
  };
  std::string verify(const std::string& reply, const std::string& id, std::uint64_t key,
                     const std::function<GenInstance()>& instance, bool expect_hit);

  std::map<std::uint64_t, Reference> refs_;
  std::map<std::uint64_t, FirstReply> first_;
  std::vector<double> ratios_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
