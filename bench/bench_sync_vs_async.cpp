// bench_sync_vs_async — regenerates the paper's Section I-A comparison
// (experiment X1 of DESIGN.md): for constant R the asynchronous bounds
// match the synchronous ones asymptotically, and the only stable-rate gap
// is at rho = 1; but protocols *designed* for the synchronous channel
// (RRW, MBTF, the synchronous binary search) break outright when R > 1,
// while ABS/AO/CA-ARRoW keep working and only pay a polynomial-in-R
// constant.
#include <iostream>

#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr Tick kHorizon = 300000 * U;

// ---- leader election: slots vs R, normalized to the R = 1 line.

void print_le_comparison() {
  const std::uint32_t n = 64;
  const auto worst_slots = [n](std::uint32_t R) {
    return run_sst(analysis::materials(sst_spec("abs", n, R)), 20).max_slots;
  };
  const std::uint64_t base = worst_slots(1);
  util::Table t({"R", "ABS slots (n=64)", "vs R=1", "R^2 reference"});
  for (std::uint32_t R : {1u, 2u, 4u, 8u}) {
    const std::uint64_t s = worst_slots(R);
    t.row(R, s, static_cast<double>(s) / static_cast<double>(base),
          static_cast<double>(R) * R);
  }
  std::cout << "== Leader election under asynchrony: the R^2 price ==\n"
            << t.to_string()
            << "(for constant R the bounds match the synchronous channel "
               "asymptotically; the growth with R tracks R^2)\n\n";
}

// ---- PT: who survives R > 1.

void print_pt_comparison() {
  util::Table t({"protocol", "R", "max queue (units)", "collided",
                 "delivered frac", "verdict"});
  const util::Ratio rho(6, 10);
  const Tick burst = 12 * U;

  auto add = [&](const char* name, const char* protocol, std::uint32_t R) {
    const auto res =
        run_pt(pt_spec(protocol, 4, R, rho, burst, kHorizon, R == 1));
    const bool ok =
        res.collisions == 0 ? res.max_queue_cost_units < 2000
                            : false;
    const bool ao_ok = res.max_queue_cost_units < 2000;  // AO may collide
    const bool stable = std::string(name).find("AO") == 0 ? ao_ok : ok;
    t.row(name, R, res.max_queue_cost_units, res.collisions,
          res.delivered_fraction, stable ? "stable" : "BROKEN");
  };

  add("RRW", "rrw", 1);
  add("RRW", "rrw", 2);
  add("MBTF", "mbtf", 1);
  add("MBTF", "mbtf", 2);
  add("AO-ARRoW", "ao-arrow", 1);
  add("AO-ARRoW", "ao-arrow", 2);
  add("CA-ARRoW", "ca-arrow", 1);
  add("CA-ARRoW", "ca-arrow", 2);

  std::cout << "== Packet transmission at rho = 0.6: synchronous "
               "protocols vs ARRoW when R grows ==\n"
            << t.to_string()
            << "(the crossover: RRW/MBTF are fine at R=1 and break at "
               "R=2; ARRoW pays constants but stays stable)\n\n";
}

// ---- throughput-vs-R: the asynchrony overhead of the ARRoW protocols.

void print_overhead_series() {
  util::Table t({"R", "AO max stable-ish queue", "CA max queue",
                 "AO wasted frac", "CA wasted frac"});
  util::CsvWriter csv("bench_sync_vs_async.csv",
                      {"R", "ao_queue", "ca_queue", "ao_wasted",
                       "ca_wasted"});
  for (std::uint32_t R : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const util::Ratio rho(1, 2);
    const Tick burst = 8 * static_cast<Tick>(R) * U;
    const auto ao = run_pt(pt_spec("ao-arrow", 4, R, rho, burst, kHorizon));
    const auto ca = run_pt(pt_spec("ca-arrow", 4, R, rho, burst, kHorizon));
    t.row(R, ao.max_queue_cost_units, ca.max_queue_cost_units,
          ao.wasted_fraction, ca.wasted_fraction);
    csv.row(R, ao.max_queue_cost_units, ca.max_queue_cost_units,
            ao.wasted_fraction, ca.wasted_fraction);
  }
  std::cout << "== ARRoW overhead as R grows (rho = 0.5, n = 4) ==\n"
            << t.to_string() << "(series in bench_sync_vs_async.csv)\n\n";
}

}  // namespace

int main() {
  std::cout << "bench_sync_vs_async — the synchronous/asynchronous "
               "comparison of Section I-A\n\n";
  print_le_comparison();
  print_pt_comparison();
  print_overhead_series();
  return 0;
}
