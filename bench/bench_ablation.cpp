// bench_ablation — experiment X2 of DESIGN.md: the design choices inside
// ABS are load-bearing. Three ablations:
//
//  1. Shrink the 1-bit threshold from 4R^2+3R toward 3R: the asymmetry
//     that lets 0-stations silence 1-stations disappears and elections
//     start failing (no clean single winner) under asynchrony.
//  2. Underestimate R (protocol constants computed from R_est < r): the
//     phase-alignment invariant (Lemma 1) breaks.
//  3. Overestimate R: correctness is kept (the thresholds are upper
//     bounds) but the slot complexity grows quadratically — quantifying
//     the cost of a pessimistic R.
#include <iostream>

#include "baselines/sync_binary_le.h"
#include "core/ao_arrow.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

/// ABS with listening thresholds (t0, t1) on n stations whose true
/// asynchrony bound is `true_r`.
sim::EngineMaterials ablated_abs(std::uint32_t n, std::uint32_t true_r,
                               std::uint64_t t0, std::uint64_t t1) {
  auto m = analysis::materials(sst_spec("abs", n, true_r));
  for (auto& p : m.protocols) p = std::make_unique<core::AbsProtocol>(t0, t1);
  return m;
}

void print_threshold_ablation() {
  const std::uint32_t n = 16, R = 4;
  util::Table t({"threshold1", "solved", "winners", "dangling",
                 "worst slots", "healthy"});
  const std::uint64_t t0 = core::abs_threshold0(R);
  const std::uint64_t full = core::abs_threshold1(R);
  for (std::uint64_t t1 : {full, full / 2, full / 4, t0 + 2, t0}) {
    const auto out = run_sst(ablated_abs(n, R, t0, t1), 40);
    const bool healthy = out.solved && out.winners == 1 && out.dangling == 0;
    t.row(t1, out.solved, out.winners, out.dangling, out.max_slots, healthy);
  }
  std::cout << "== Ablation 1: shrinking ABS's 1-bit listening threshold "
               "(paper value "
            << full << " = 4R^2+3R at R=" << R << ") ==\n"
            << t.to_string()
            << "(only the paper value is guaranteed for every adversary; "
               "under this particular schedule smaller thresholds limp "
               "along until the asymmetry vanishes entirely — the bottom "
               "row deadlocks with no winner)\n\n";
}

void print_r_estimate_ablation() {
  const std::uint32_t n = 8, true_r = 4;
  util::Table t({"R_est", "solved", "winners", "dangling", "worst slots",
                 "healthy"});
  for (std::uint32_t r_est : {1u, 2u, 4u, 8u, 16u}) {
    const auto out =
        run_sst(ablated_abs(n, true_r, core::abs_threshold0(r_est),
                            core::abs_threshold1(r_est)),
                40);
    const bool healthy = out.solved && out.winners == 1 && out.dangling == 0;
    t.row(r_est, out.solved, out.winners, out.dangling, out.max_slots,
          healthy);
  }
  std::cout << "== Ablation 2/3: protocol built for R_est while the true "
               "bound is r = 4 ==\n"
            << t.to_string()
            << "(R_est < 4 may break the election; R_est > 4 stays "
               "correct and pays ~R_est^2 slots)\n\n";
}

void print_long_silence_ablation() {
  // AO-ARRoW with a too-small long-silence threshold concludes "no
  // election in progress" during an election's legitimate quiet periods
  // and re-synchronizes into it: extra collisions and duplicate
  // elections. Sweep the threshold downward at fixed sync countdown.
  const std::uint64_t paper = core::long_silence_threshold(2);
  const Tick horizon = 200000 * U;
  util::Table t({"long-silence threshold (slots)", "max queue (units)",
                 "collisions", "delivered frac"});
  for (std::uint64_t thr : {paper, paper / 2, paper / 4, paper / 8,
                            std::uint64_t{4}}) {
    core::AoArrowProtocol::Tuning tuning;
    tuning.long_silence_slots = thr;
    tuning.sync_countdown_slots = 2 * thr;
    auto m = analysis::materials(
        pt_spec("ao-arrow", 4, 2, util::Ratio(1, 2), 16 * U, horizon));
    for (auto& p : m.protocols)
      p = std::make_unique<core::AoArrowProtocol>(tuning);
    const auto e = engine(std::move(m));
    e->run(sim::until(horizon));
    const auto res = pt_result(*e);
    t.row(thr, res.max_queue_cost_units, res.collisions,
          res.delivered_fraction);
  }
  std::cout << "== Ablation 3b: AO-ARRoW's long-silence threshold (paper "
               "value "
            << paper << " slots at R = 2) ==\n"
            << t.to_string()
            << "(small thresholds re-enter live elections: collision "
               "counts rise; the paper value keeps the box-7 deduction "
               "sound)\n\n";
}

void print_subroutine_ablation() {
  // Theorem 3 parameterizes AO-ARRoW by its Leader_Election(R); swap the
  // classic synchronous binary search in and the elections misfire under
  // drifting schedules — visible as an order of magnitude more
  // collisions on the identical workload (the AO wrapper's recovery
  // paths keep deliveries going, which is itself a measured finding).
  util::Table t({"Leader_Election(R)", "collisions", "delivered frac",
                 "final queue (units)"});
  auto add = [&](const char* name, core::LeaderElectionFactory le) {
    const Tick horizon = 200000 * U;
    auto spec = pt_spec("ao-arrow", 4, 2, util::Ratio(1, 2), 8 * U, horizon);
    spec.slot_policy = "cyclic";  // slot lengths cycle 1, 2 units
    auto m = analysis::materials(spec);
    for (auto& p : m.protocols) p = std::make_unique<core::AoArrowProtocol>(le);
    const auto e = engine(std::move(m));
    e->run(sim::until(horizon));
    const auto res = pt_result(*e);
    t.row(name, res.collisions, res.delivered_fraction,
          res.final_queue_cost_units);
  };
  add("ABS (paper)", core::AbsAutomaton::factory());
  add("sync binary search", baselines::SyncBinaryLeAutomaton::factory());
  std::cout << "== Ablation 4: the Leader_Election(R) subroutine "
               "(drifting cyclic schedule, R = 2, rho = 0.5) ==\n"
            << t.to_string()
            << "(the asynchrony-safe ABS is load-bearing: the synchronous "
               "search misfires into collisions)\n\n";
}

}  // namespace

int main() {
  std::cout << "bench_ablation — design-choice ablations for ABS "
               "(experiment X2 of DESIGN.md)\n\n";
  print_threshold_ablation();
  print_r_estimate_ablation();
  print_long_silence_ablation();
  print_subroutine_ablation();
  return 0;
}
