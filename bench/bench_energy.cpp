// bench_energy — energy-vs-latency trade-offs of the MAC protocols
// under the per-slot energy model (energy/model.h, docs/ENERGY.md).
//
// Three sweeps, each an ASCII table plus a CSV series:
//   1. protocol x injection rate: energy per delivered packet against
//      delivery-latency tails (bench_energy.csv) — the headline
//      trade-off: contention protocols burn transmit slots on
//      collisions, deferral protocols burn listen slots waiting.
//   2. CSMA-LBT sensing-gap sweep (bench_energy_lbt.csv): the LBT deter
//      period M is the canonical energy/latency knob — longer gaps cut
//      collision (transmit) energy and pay in deferral latency.
//   3. k-restrained admission sweep (bench_energy_restrained.csv):
//      capacity-limited channels under both overflow semantics.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/csma_lbt.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr Tick kHorizon = 100000 * U;

/// The committed reference cost vector: transmitting is twice as dear as
/// listening, and a sleeping (empty-queue) station still pays a trickle.
const energy::EnergyModel kModel{true, 4, 2, 1};

struct EnergyRow {
  double per_delivery = 0;   ///< total charge / delivered packets
  double peak_station = 0;   ///< largest single-station charge
  double p50 = 0, p99 = 0;   ///< delivery latency (units)
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
};

EnergyRow run_energy(std::unique_ptr<sim::Engine> e) {
  e->run(sim::until(kHorizon));
  EnergyRow out;
  const auto& s = e->stats();
  const auto& meter = e->energy_meter();
  out.delivered = s.delivered_packets;
  out.collisions = e->channel_stats().collided;
  if (out.delivered > 0)
    out.per_delivery =
        static_cast<double>(meter.total_charge(kModel)) /
        static_cast<double>(out.delivered);
  out.peak_station = static_cast<double>(meter.peak_station_charge(kModel));
  if (!s.latency.empty()) {
    out.p50 = to_units(s.latency.quantile(0.5));
    out.p99 = to_units(s.latency.quantile(0.99));
  }
  return out;
}

/// The PT workload (burst 8R) on the metered channel.
analysis::RunSpec energy_spec(const std::string& protocol, std::uint32_t n,
                              std::uint32_t R, util::Ratio rho) {
  auto spec = pt_spec(protocol, n, R, rho, 8 * static_cast<Tick>(R) * U,
                      kHorizon);
  spec.energy = kModel;
  return spec;
}

void print_energy_vs_rho() {
  util::Table t({"protocol", "rho", "energy/delivery", "peak station",
                 "p50 (units)", "p99", "delivered"});
  util::CsvWriter csv("bench_energy.csv",
                      {"protocol", "rho", "energy_per_delivery",
                       "peak_station_charge", "p50", "p99", "delivered"});
  const std::vector<std::string> kProtocols = {
      "ao-arrow", "ca-arrow", "rrw", "aloha", "beb", "csma-lbt"};
  for (int pct : {30, 60, 90}) {
    const util::Ratio rho(pct, 100);
    for (const auto& p : kProtocols) {
      const EnergyRow row =
          run_energy(analysis::build_engine(energy_spec(p, 4, 2, rho)));
      t.row(p, pct / 100.0, row.per_delivery, row.peak_station, row.p50,
            row.p99, row.delivered);
      csv.row(p, pct / 100.0, row.per_delivery, row.peak_station, row.p50,
              row.p99, row.delivered);
    }
  }
  std::cout << "== Energy per delivery vs rho (n=4, R=2, costs "
            << kModel.cost_transmit << ":" << kModel.cost_listen << ":"
            << kModel.cost_sleep << ") ==\n"
            << t.to_string()
            << "(collision-prone contenders pay in transmit slots, "
               "deferral schemes in listen slots; series in "
               "bench_energy.csv)\n\n";
}

void print_lbt_gap_sweep() {
  util::Table t({"gap M", "energy/delivery", "p99 (units)", "delivered",
                 "collisions"});
  util::CsvWriter csv("bench_energy_lbt.csv",
                      {"gap_slots", "energy_per_delivery", "p50", "p99",
                       "delivered", "collisions"});
  for (std::uint32_t gap : {0u, 1u, 2u, 4u, 8u}) {
    auto spec = energy_spec("csma-lbt", 4, 2, util::Ratio(3, 5));
    spec.injector.burst_ticks = 16 * U;
    auto m = analysis::materials(spec);
    for (auto& p : m.protocols)
      p = std::make_unique<baselines::CsmaLbtProtocol>(gap, 4u, 1024u);
    const EnergyRow row = run_energy(engine(std::move(m)));
    t.row(gap, row.per_delivery, row.p99, row.delivered, row.collisions);
    csv.row(gap, row.per_delivery, row.p50, row.p99, row.delivered,
            row.collisions);
  }
  std::cout << "== CSMA-LBT sensing-gap sweep (n=4, R=2, rho=0.6) ==\n"
            << t.to_string()
            << "(the LBT knob: longer deter periods trade collision "
               "energy for deferral latency; series in "
               "bench_energy_lbt.csv)\n\n";
}

void print_restrained_sweep() {
  util::Table t({"channel", "energy/delivery", "p99 (units)", "delivered",
                 "collisions"});
  util::CsvWriter csv("bench_energy_restrained.csv",
                      {"k", "mode", "energy_per_delivery", "p99",
                       "delivered", "collisions"});
  const auto point = [&](const std::string& label,
                         channel::RestrainedSpec spec) {
    auto run = energy_spec("aloha", 4, 2, util::Ratio(7, 10));
    run.restrained = spec;
    const EnergyRow row = run_energy(analysis::build_engine(run));
    t.row(label, row.per_delivery, row.p99, row.delivered, row.collisions);
    csv.row(spec.k, spec.enabled() ? (spec.jam ? "jam" : "reject") : "off",
            row.per_delivery, row.p99, row.delivered, row.collisions);
  };
  point("unrestrained", {});
  for (std::uint32_t k : {1u, 2u}) {
    for (const bool jam : {true, false}) {
      std::ostringstream label;
      label << "k=" << k << (jam ? " jam" : " reject");
      point(label.str(), {k, jam});
    }
  }
  std::cout << "== k-restrained channel (aloha, n=4, rho=0.7) ==\n"
            << t.to_string()
            << "(reject suppresses over-capacity transmissions at the "
               "radio — cheaper and cleaner than jamming them; series in "
               "bench_energy_restrained.csv)\n\n";
}

}  // namespace

int main() {
  std::cout << "bench_energy — energy-vs-latency trade-offs\n\n";
  print_energy_vs_rho();
  print_lbt_gap_sweep();
  print_restrained_sweep();
  return 0;
}
