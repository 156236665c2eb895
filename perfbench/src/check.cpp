#include "check.hpp"

#include <cstdlib>

#include "stats.hpp"

namespace perfbench {

using bisched::Rational;

std::optional<Rational> parse_rational(const std::string& s) {
  char* end = nullptr;
  const long long num = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end == s.c_str()) return std::nullopt;
  if (*end == '\0') return Rational(num);
  if (*end != '/') return std::nullopt;
  const char* den_text = end + 1;
  const long long den = std::strtoll(den_text, &end, 10);
  if (end == den_text || *end != '\0' || den <= 0) return std::nullopt;
  return Rational(num, den);
}

bool Checker::check(const Sample& s, const std::string& id, std::uint64_t key,
                    const std::function<GenInstance()>& instance, bool expect_hit) {
  const std::string why =
      s.replied_ns == 0 ? "no reply" : verify(s.reply, id, key, instance, expect_hit);
  if (why.empty()) {
    ++attempted_;
    return true;
  }
  fail(id + ": " + why);
  return false;
}

void Checker::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(why);
}

double Checker::makespan_ratio() const { return geomean(ratios_); }

const std::string* Checker::makespan(std::uint64_t key) const {
  auto it = first_.find(key);
  return it == first_.end() ? nullptr : &it->second.makespan;
}

std::string Checker::verify(const std::string& reply, const std::string& id, std::uint64_t key,
                            const std::function<GenInstance()>& instance, bool expect_hit) {
  if (json_string(reply, "status").value_or("") != "ok") {
    return "status not ok: " + json_string(reply, "error").value_or(reply.substr(0, 200));
  }
  if (json_string(reply, "id").value_or("") != id) return "reply id mismatch";
  auto ref = refs_.find(key);
  if (ref == refs_.end()) {
    const GenInstance g = instance();
    ref = refs_.emplace(key, Reference{expected_hash(g), reference_lower_bound(g)}).first;
  }
  const std::string hash = json_string(reply, "hash").value_or("");
  if (hash != ref->second.hash) return "hash " + hash + " != expected " + ref->second.hash;
  const std::string makespan = json_string(reply, "makespan").value_or("");
  const auto value = parse_rational(makespan);
  if (!value.has_value()) return "unparseable makespan '" + makespan + "'";
  if (*value < ref->second.lower_bound) {
    return "makespan " + makespan + " below lower bound " + ref->second.lower_bound.to_string();
  }
  const std::string tier = json_string(reply, "solve_cache").value_or("");
  if (expect_hit && tier != "hit-memory") return "expected solve_cache hit-memory, got " + tier;
  const std::string solver = json_string(reply, "solver").value_or("");
  auto first = first_.find(key);
  if (first == first_.end()) {
    first_.emplace(key, FirstReply{makespan, solver});
    const double lb = ref->second.lower_bound.to_double();
    if (lb > 0) ratios_.push_back(value->to_double() / lb);
  } else if (first->second.makespan != makespan || first->second.solver != solver) {
    return "repeat answered " + makespan + " by " + solver + ", first answer was " +
           first->second.makespan + " by " + first->second.solver;
  }
  return "";
}

}  // namespace perfbench
