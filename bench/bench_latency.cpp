// bench_latency — extension series (in the spirit of the packet-latency
// study the paper cites as [10]): delivery-latency distributions of the
// ARRoW protocols versus injection rate and versus R. Not a figure of
// the reproduced paper; included because latency is the first question a
// downstream user asks after stability.
#include <iostream>

#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr Tick kHorizon = 200000 * U;

struct LatencyRow {
  double p50 = 0, p99 = 0, max = 0;
  std::uint64_t n = 0;
};

/// Delivery latency of `protocol` on n = 4 stations under the PT workload
/// with burst 8R.
LatencyRow run_latency(const char* protocol, std::uint32_t R,
                       util::Ratio rho, bool synchronous) {
  const auto e = analysis::build_engine(pt_spec(
      protocol, 4, R, rho, 8 * static_cast<Tick>(R) * U, kHorizon,
      synchronous));
  e->run(sim::until(kHorizon));
  LatencyRow out;
  const auto& lat = e->stats().latency;
  if (!lat.empty()) {
    out.p50 = to_units(lat.quantile(0.5));
    out.p99 = to_units(lat.quantile(0.99));
    out.max = to_units(lat.max());
    out.n = lat.count();
  }
  return out;
}

void print_latency_vs_rho() {
  util::Table t({"protocol", "rho", "p50 (units)", "p99", "max",
                 "deliveries"});
  util::CsvWriter csv("bench_latency.csv",
                      {"protocol", "rho", "p50", "p99", "max"});
  for (int pct : {30, 60, 90}) {
    const util::Ratio rho(pct, 100);
    const auto ao = run_latency("ao-arrow", 2, rho, false);
    const auto ca = run_latency("ca-arrow", 2, rho, false);
    t.row("AO-ARRoW", pct / 100.0, ao.p50, ao.p99, ao.max, ao.n);
    t.row("CA-ARRoW", pct / 100.0, ca.p50, ca.p99, ca.max, ca.n);
    csv.row("AO-ARRoW", pct / 100.0, ao.p50, ao.p99, ao.max);
    csv.row("CA-ARRoW", pct / 100.0, ca.p50, ca.p99, ca.max);
  }
  const auto rrw = run_latency("rrw", 1, util::Ratio(6, 10), true);
  t.row("RRW (R=1)", 0.6, rrw.p50, rrw.p99, rrw.max, rrw.n);
  std::cout << "== Delivery latency vs rho (n=4, R=2) ==\n" << t.to_string()
            << "(CA-ARRoW's turn cycle gives tight tails; AO-ARRoW's "
               "election+withhold batches trade latency for zero control "
               "traffic; series in bench_latency.csv)\n\n";
}

void print_latency_vs_r() {
  util::Table t({"R", "AO p99 (units)", "CA p99 (units)"});
  for (std::uint32_t R : {1u, 2u, 4u, 8u}) {
    const util::Ratio rho(1, 2);
    const auto ao = run_latency("ao-arrow", R, rho, R == 1);
    const auto ca = run_latency("ca-arrow", R, rho, R == 1);
    t.row(R, ao.p99, ca.p99);
  }
  std::cout << "== Tail latency vs R (rho = 0.5) ==\n" << t.to_string()
            << "(the asynchrony price also shows in the tails — "
               "polynomial in R, matching the slot-complexity "
               "constants)\n";
}

}  // namespace

int main() {
  std::cout << "bench_latency — delivery-latency distributions "
               "(extension series)\n\n";
  print_latency_vs_rho();
  print_latency_vs_r();
  return 0;
}
