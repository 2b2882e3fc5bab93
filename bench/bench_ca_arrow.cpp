// bench_ca_arrow — regenerates the Theorem-6 evaluation: CA-ARRoW's
// measured queue cost versus the closed-form (2nR^2(1+rho)+b)/(1-rho)
// bound, with the collision counter required to stay at zero in every
// cell, plus the AO-vs-CA contrast (collisions traded for control
// messages).
#include <iostream>

#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr Tick kHorizon = 400000 * U;

void print_rho_series() {
  util::Table t({"rho", "max queue (units)", "bound", "collided",
                 "control msgs", "delivered frac"});
  util::CsvWriter csv("bench_ca_arrow.csv",
                      {"rho", "max_queue", "bound", "collided",
                       "control_msgs", "delivered_frac"});
  for (int pct : {10, 30, 50, 70, 80, 90, 95}) {
    const util::Ratio rho(pct, 100);
    const Tick burst = 16 * U;
    const auto res = run_pt(pt_spec("ca-arrow", 4, 2, rho, burst, kHorizon));
    const double bound = core::ca_arrow_bound(4, 2, rho, to_units(burst));
    t.row(pct / 100.0, res.max_queue_cost_units, bound, res.collisions,
          res.control_msgs, res.delivered_fraction);
    csv.row(pct / 100.0, res.max_queue_cost_units, bound, res.collisions,
            res.control_msgs, res.delivered_fraction);
  }
  std::cout << "== Theorem 6: CA-ARRoW queue cost vs rho (n=4, R=2) ==\n"
            << t.to_string()
            << "(collided must be 0 everywhere; series in "
               "bench_ca_arrow.csv)\n\n";
}

void print_nr_matrix() {
  util::Table t({"n", "R", "max queue (units)", "bound", "collided"});
  for (std::uint32_t n : {2u, 4u, 8u}) {
    for (std::uint32_t R : {1u, 2u, 4u}) {
      const util::Ratio rho(7, 10);
      const Tick burst = 8 * static_cast<Tick>(R) * U;
      const auto res = run_pt(pt_spec("ca-arrow", n, R, rho, burst, kHorizon));
      t.row(n, R, res.max_queue_cost_units,
            core::ca_arrow_bound(n, R, rho, to_units(burst)),
            res.collisions);
    }
  }
  std::cout << "== CA-ARRoW at rho = 0.7 across (n, R) ==\n" << t.to_string()
            << "\n";
}

void print_ao_vs_ca() {
  util::Table t({"protocol", "rho", "max queue (units)", "collided",
                 "control msgs", "wasted frac"});
  for (int pct : {50, 90}) {
    const util::Ratio rho(pct, 100);
    const auto ao = run_pt(pt_spec("ao-arrow", 4, 2, rho, 16 * U, kHorizon));
    const auto ca = run_pt(pt_spec("ca-arrow", 4, 2, rho, 16 * U, kHorizon));
    t.row("AO-ARRoW", pct / 100.0, ao.max_queue_cost_units, ao.collisions,
          ao.control_msgs, ao.wasted_fraction);
    t.row("CA-ARRoW", pct / 100.0, ca.max_queue_cost_units, ca.collisions,
          ca.control_msgs, ca.wasted_fraction);
  }
  std::cout << "== The Table-I trade: collisions (AO) vs control messages "
               "(CA) ==\n"
            << t.to_string() << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_ca_arrow — reproduces the Theorem 6 evaluation\n\n";
  print_rho_series();
  print_nr_matrix();
  print_ao_vs_ca();
  return 0;
}
