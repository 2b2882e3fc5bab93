// bench_ao_arrow — regenerates the Theorem-3 evaluation: AO-ARRoW's
// measured worst-case total queue cost versus the closed-form bound L
// across the injection-rate axis (the stability "hockey stick" as
// rho -> 1), and across n and R.
#include <algorithm>
#include <iostream>

#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr Tick kHorizon = 400000 * U;

void print_rho_series() {
  util::Table t({"rho", "max queue (units)", "final queue", "bound L",
                 "delivered frac", "wasted frac"});
  util::CsvWriter csv("bench_ao_arrow.csv",
                      {"rho", "max_queue", "final_queue", "bound_L",
                       "delivered_frac", "wasted_frac"});
  for (int pct : {10, 30, 50, 70, 80, 90, 95}) {
    const util::Ratio rho(pct, 100);
    const Tick burst = 16 * U;
    // Thm 3 bounds the *worst case*: replicate over derived seeds (in
    // parallel — every replica is an independent Engine) and report the
    // replica with the largest max queue. AO-ARRoW under per-station slots
    // and round-robin injection draws from no seed (seed_invariant), so
    // every derived seed replays the same run and one replica is that
    // worst case.
    const auto spec = pt_spec("ao-arrow", 4, 2, rho, burst, kHorizon);
    const int seeds = analysis::seed_invariant(spec) ? 1 : 3;
    const auto reps = replicate_seeds(seeds, 1, /*jobs=*/0,
                                      [&](std::uint64_t s) {
                                        auto replica = spec;
                                        replica.seed = s;
                                        return run_pt(replica);
                                      });
    const auto res = *std::max_element(
        reps.begin(), reps.end(), [](const PtResult& a, const PtResult& b2) {
          return a.max_queue_cost_units < b2.max_queue_cost_units;
        });
    const auto b = core::arrow_bounds(4, 2, 2, rho, to_units(burst));
    t.row(pct / 100.0, res.max_queue_cost_units, res.final_queue_cost_units,
          b.L, res.delivered_fraction, res.wasted_fraction);
    csv.row(pct / 100.0, res.max_queue_cost_units,
            res.final_queue_cost_units, b.L, res.delivered_fraction,
            res.wasted_fraction);
  }
  std::cout << "== Theorem 3: AO-ARRoW queue cost vs rho "
               "(n=4, R=2, horizon="
            << to_units(kHorizon) << " units) ==\n"
            << t.to_string()
            << "(measured max queue must stay below L for every rho < 1; "
               "series in bench_ao_arrow.csv)\n\n";
}

void print_nr_matrix() {
  util::Table t({"n", "R", "max queue (units)", "bound L", "within bound"});
  for (std::uint32_t n : {2u, 4u, 8u}) {
    for (std::uint32_t R : {1u, 2u, 4u}) {
      const util::Ratio rho(7, 10);
      const Tick burst = 8 * static_cast<Tick>(R) * U;
      const auto res = run_pt(pt_spec("ao-arrow", n, R, rho, burst, kHorizon));
      const auto b = core::arrow_bounds(n, R, R, rho, to_units(burst));
      t.row(n, R, res.max_queue_cost_units, b.L,
            res.max_queue_cost_units < b.L);
    }
  }
  std::cout << "== AO-ARRoW at rho = 0.7 across (n, R) ==\n" << t.to_string()
            << "\n";
}

void print_burstiness_series() {
  util::Table t({"burst b (units)", "max queue (units)", "bound L"});
  for (Tick b_units : {4, 16, 64, 256}) {
    const util::Ratio rho(8, 10);
    const auto res =
        run_pt(pt_spec("ao-arrow", 4, 2, rho, b_units * U, kHorizon));
    const auto b = core::arrow_bounds(4, 2, 2, rho,
                                      static_cast<double>(b_units));
    t.row(b_units, res.max_queue_cost_units, b.L);
  }
  std::cout << "== AO-ARRoW queue vs burstiness (rho = 0.8) ==\n"
            << t.to_string() << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_ao_arrow — reproduces the Theorem 3 evaluation\n\n";
  print_rho_series();
  print_nr_matrix();
  print_burstiness_series();
  return 0;
}
