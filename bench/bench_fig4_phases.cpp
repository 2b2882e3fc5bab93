// bench_fig4_phases — regenerates the dynamics of the paper's Fig. 4:
// AO-ARRoW's execution decomposes into *phases* separated by long
// silences, and each phase into *subphases* of up to n leader elections
// with their associated withheld transmissions.
//
// The workload is deliberately intermittent (bursts separated by idle
// gaps longer than the long-silence threshold), so the run exhibits many
// phase boundaries. We report:
//   * the protocol's own Fig.-5 event counters per station — elections
//     entered/won, box-7 long-silence detections (phase boundaries) and
//     box-9 synchronizing transmissions;
//   * a channel-level timeline: for each burst period, the number of
//     elections (successful election transmissions), packets drained and
//     the longest silent gap — the subphase / long-silence structure.
#include <algorithm>
#include <iostream>

#include "core/ao_arrow.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kR = 2;

void print_phase_structure() {
  // The long-silence threshold at R = 2 is 52 observer slots (~104 time
  // units at worst); a burst period of 2000 units guarantees an idle gap
  // long enough that every burst opens a fresh phase.
  const Tick period = 2000 * U;
  const Tick horizon = 20000 * U;
  auto spec = pt_spec("ao-arrow", kN, kR, util::Ratio(15, 100),
                      /*burst=*/30 * U, horizon);
  spec.injector.kind = "bursty";  // dumps the bucket once per period
  spec.injector.period_ticks = period;
  spec.keep_channel_history = true;
  const auto e = analysis::build_engine(spec);
  e->run(sim::until(horizon));

  std::cout << "long-silence threshold = "
            << core::long_silence_threshold(kR)
            << " observer slots; sync countdown = "
            << core::sync_countdown_slots(kR) << " slots\n\n";

  util::Table t({"station", "elections entered", "elections won",
                 "long silences seen (box 7)", "sync packets (box 9)"});
  for (StationId id = 1; id <= kN; ++id) {
    const auto& p =
        dynamic_cast<const core::AoArrowProtocol&>(e->protocol(id));
    t.row(id, p.elections_entered(), p.elections_won(), p.long_silences(),
          p.sync_transmissions());
  }
  std::cout << "== Per-station Fig.-5 event counters over "
            << to_units(horizon) / to_units(period) << " burst periods ==\n"
            << t.to_string() << "\n";

  // Channel-level timeline per burst period.
  std::vector<channel::Transmission> txs(e->ledger().full_history());
  for (const auto& tx : e->ledger().window()) txs.push_back(tx);
  std::sort(txs.begin(), txs.end(),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });

  util::Table tl({"phase (burst #)", "t range (units)", "transmissions",
                  "successful", "collided", "longest silent gap (units)"});
  for (Tick p0 = 0; p0 < horizon; p0 += period) {
    const Tick p1 = p0 + period;
    std::uint64_t total = 0, good = 0, bad = 0;
    Tick gap = 0, last_end = p0;
    for (const auto& tx : txs) {
      if (tx.end <= p0 || tx.begin >= p1) continue;
      ++total;
      if (tx.successful) ++good;
      else ++bad;
      gap = std::max(gap, tx.begin - last_end);
      last_end = std::max(last_end, tx.end);
    }
    gap = std::max(gap, p1 - last_end);
    tl.row(static_cast<std::uint64_t>(p0 / period),
           std::to_string(static_cast<long>(to_units(p0))) + ".." +
               std::to_string(static_cast<long>(to_units(p1))),
           total, good, bad, to_units(gap));
  }
  std::cout << "== Channel timeline (each burst period = one Fig.-4 phase; "
               "the long silent gap at its end is the phase boundary) ==\n"
            << tl.to_string()
            << "(each phase shows a burst of elections + drains followed "
               "by a long silence, i.e. Fig. 4's phase/subphase "
               "structure)\n";
}

}  // namespace

int main() {
  std::cout << "bench_fig4_phases — reproduces the phase/subphase "
               "structure of Fig. 4 (AO-ARRoW under intermittent load)\n\n";
  print_phase_structure();
  return 0;
}
