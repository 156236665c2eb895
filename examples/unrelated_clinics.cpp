// Two specialized clinics (unrelated machines): each patient needs a
// different amount of time at each clinic (language, mobility, paperwork),
// and conflicting patients cannot share a clinic. This is
// R2|G=bipartite|Cmax — the example runs Algorithm 4 (2-approx), Algorithm 5
// (FPTAS) at several precisions, and the exact reduction-based optimum.
//
//   $ ./examples/unrelated_clinics [patients_per_group]
#include <cstdlib>
#include <iostream>

#include "core/r2_algorithms.hpp"
#include "random/generators.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace bisched;

  const int half = argc > 1 ? std::atoi(argv[1]) : 150;
  Rng rng(7);

  // Sparse conflicts: a few dozen known pairs per hundred patients.
  Graph conflicts = random_bipartite_edges(half, half, half / 2, rng);

  // Clinic times: clinic A is generally faster, but some patients (say, those
  // needing an interpreter only clinic B has) run much faster at B.
  std::vector<std::vector<std::int64_t>> minutes(2,
                                                 std::vector<std::int64_t>(2 * half));
  for (int j = 0; j < 2 * half; ++j) {
    const bool needs_b = rng.bernoulli(0.3);
    minutes[0][static_cast<std::size_t>(j)] = needs_b ? rng.uniform_int(40, 90)
                                                      : rng.uniform_int(10, 25);
    minutes[1][static_cast<std::size_t>(j)] = needs_b ? rng.uniform_int(10, 25)
                                                      : rng.uniform_int(20, 45);
  }
  const auto inst = make_unrelated_instance(std::move(minutes), std::move(conflicts));

  std::cout << "Patients: " << inst.num_jobs() << ", conflicts: "
            << inst.conflicts.num_edges() << ", clinics: 2\n\n";

  TextTable t("Clinic-day length (minutes)");
  t.set_header({"plan", "makespan", "vs optimum", "ms"});

  Timer timer;
  const auto exact = r2_exact_bipartite(inst);
  const double exact_ms = timer.millis();
  t.add_row({"exact (reduction + DP)", std::to_string(exact.cmax), "1.0000",
             fmt_double(exact_ms, 2)});

  timer.reset();
  const auto two = r2_two_approx(inst);
  t.add_row({"Algorithm 4 (2-approx, O(n))", std::to_string(two.cmax),
             fmt_ratio(static_cast<double>(two.cmax) / exact.cmax),
             fmt_double(timer.millis(), 2)});

  for (double eps : {0.5, 0.1, 0.01}) {
    timer.reset();
    const auto fpt = r2_fptas_bipartite(inst, eps).value();
    t.add_row({"Algorithm 5 (eps=" + fmt_double(eps, 2) + ")", std::to_string(fpt.cmax),
               fmt_ratio(static_cast<double>(fpt.cmax) / exact.cmax),
               fmt_double(timer.millis(), 2)});
  }
  t.print(std::cout);

  std::cout << "\nTheorem 22: Algorithm 5's makespan is at most (1+eps) times optimal;\n"
               "Theorem 24: with three or more clinics no such guarantee can exist.\n";
  return validate(inst, two.schedule) == ScheduleStatus::kValid ? 0 : 1;
}
