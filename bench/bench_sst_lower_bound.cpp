// bench_sst_lower_bound — regenerates the Theorem-2 series: the mirror-
// execution adversary forces ANY deterministic SST algorithm through at
// least Omega(r (log n / log r + 1)) slots without a success. The driver
// runs the construction against ABS (and the synchronous binary search),
// verifies the produced execution really is a mirror execution on the
// exact channel model, and reports forced slots next to the formula.
#include <iostream>

#include "adversary/mirror.h"
#include "analysis/registry.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

void print_series() {
  util::Table t({"algorithm", "n", "r", "forced slots/station",
                 "Thm-2 formula", "phases", "mirror verified"});
  util::CsvWriter csv(
      "bench_sst_lower_bound.csv",
      {"algorithm", "n", "r", "forced_slots", "formula", "phases"});

  for (std::uint32_t r : {2u, 4u, 8u}) {
    for (std::uint32_t n : {16u, 64u, 256u, 1024u}) {
      adversary::MirrorRun run(analysis::protocol_maker("abs"), n, r, r);
      const auto res = run.run();
      const double formula = core::sst_lower_bound_slots(n, r);
      t.row("ABS", n, r, res.slots_per_station, formula, res.phases,
            res.verified_mirror);
      csv.row("ABS", n, r, res.slots_per_station, formula, res.phases);
    }
  }
  for (std::uint32_t n : {64u, 1024u}) {
    adversary::MirrorRun run(analysis::protocol_maker("sync-binary-le"), n,
                             2, 2);
    const auto res = run.run();
    t.row("sync-binary-LE", n, 2, res.slots_per_station,
          core::sst_lower_bound_slots(n, 2), res.phases,
          res.verified_mirror);
    csv.row("sync-binary-LE", n, 2, res.slots_per_station,
            core::sst_lower_bound_slots(n, 2), res.phases);
  }
  std::cout
      << "== Theorem 2: mirror-execution lower bound "
         "Omega(r (log n / log r + 1)) ==\n"
      << t.to_string()
      << "(forced slots must dominate the formula; series in "
         "bench_sst_lower_bound.csv)\n\n";

  // The r-dependence at fixed n: the paper highlights the extra
  // Omega(r / log r) factor versus the synchronous Omega(log n).
  util::Table t2({"r", "forced slots (n=1024)", "formula",
                  "vs synchronous log2 n = 10"});
  for (std::uint32_t r : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    adversary::MirrorRun run(analysis::protocol_maker("abs"), 1024, r, r);
    const auto res = run.run();
    t2.row(r, res.slots_per_station, core::sst_lower_bound_slots(1024, r),
           static_cast<double>(res.slots_per_station) / 10.0);
  }
  std::cout << "== Asynchrony factor at n = 1024 ==\n" << t2.to_string()
            << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_sst_lower_bound — reproduces the Theorem 2 "
               "evaluation\n\n";
  print_series();
  return 0;
}
