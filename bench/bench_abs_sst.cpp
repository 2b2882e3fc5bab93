// bench_abs_sst — regenerates the Theorem-1 series: ABS solves SST in
// O(R^2 log n) slots. Sweeps n (log axis) for R in {1, 2, 4, 8} under the
// harshest fixed slot policy and reports measured worst-case slots next
// to the closed-form bound, plus the slots/(R^2 log2 n) ratio, which
// should stay O(1) across the sweep if the theorem's shape holds.
#include <cmath>
#include <iostream>

#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

/// ABS's stop budget: 20x the Theorem-1 bound.
constexpr std::uint64_t kBudget = 20;

void print_series() {
  util::Table t({"n", "R", "policy", "slots (worst station)",
                 "Thm-1 bound", "slots / (R^2 log2 n)", "time (units)"});
  util::CsvWriter csv("bench_abs_sst.csv",
                      {"n", "R", "policy", "slots", "bound", "time_units"});
  for (std::uint32_t R : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                            1024u}) {
      const auto m =
          run_sst(analysis::materials(sst_spec("abs", n, R)), kBudget);
      const double norm =
          static_cast<double>(m.max_slots) /
          (static_cast<double>(R) * R * std::max(1.0, std::log2(n)));
      t.row(n, R, "perstation", m.max_slots, core::abs_slot_bound(n, R),
            norm, m.solved_at_units);
      csv.row(n, R, "perstation", m.max_slots, core::abs_slot_bound(n, R),
              m.solved_at_units);
      if (!m.solved) {
        ++failures;
        std::cout << "!! SST unsolved at n=" << n << "\n";
      }
    }
  }
  std::cout << "== Theorem 1: ABS slot complexity, O(R^2 log n) ==\n"
            << t.to_string() << "\n(series also written to "
            << "bench_abs_sst.csv)\n\n";

  // Policy robustness at fixed (n, R).
  util::Table t2({"policy", "slots (worst station)", "time (units)"});
  for (const char* policy : {"sync", "max", "perstation"}) {
    const auto m =
        run_sst(analysis::materials(sst_spec("abs", 64, 4, policy)), kBudget);
    t2.row(policy, m.max_slots, m.solved_at_units);
  }
  std::cout << "== ABS at n=64, R=4 across slot policies ==\n"
            << t2.to_string() << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_abs_sst — reproduces the Theorem 1 evaluation\n\n";
  print_series();
  return exit_status();
}
