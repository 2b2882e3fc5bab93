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
#include <iostream>

#include "adversary/collision_forcer.h"
#include "analysis/registry.h"
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
    const auto forced = adversary::force_collision_or_overflow(
        analysis::protocol_maker("silence-tdma"), util::Ratio(1, 2), 50, kR);
    const char* what =
        forced.kind ==
                adversary::CollisionForceOutcome::Kind::kCollisionForced
            ? "collision forced (Thm 4)"
            : "queue overflow (Thm 4)";
    t.row("no", "no", "silence-TDMA", 0.5, "n/a", "n/a",
          forced.collisions, what);

    // Either failure mode shows the row's instability; a run with neither
    // would contradict it. The ceiling is the R = 1 rows' 1000 units.
    const auto rrw = run_pt(
        pt_spec("rrw", kN, kR, util::Ratio(1, 2), kBurst, kHorizon));
    const char* rrw_verdict = "collides: UNSTABLE";
    if (rrw.collisions == 0)
      rrw_verdict = verdict(rrw.max_queue_cost_units >= 1000,
                            "queue grows: UNSTABLE", "not shown!");
    t.row("no", "no", "RRW (async)", 0.5, rrw.max_queue_cost_units, "n/a",
          rrw.collisions, rrw_verdict);
  }

  // ---- Row 2: no control, collisions allowed => AO-ARRoW stable rho < 1.
  for (int pct : {50, 90}) {
    const util::Ratio rho(pct, 100);
    const auto res =
        run_pt(pt_spec("ao-arrow", kN, kR, rho, kBurst, kHorizon));
    const auto bounds =
        core::arrow_bounds(kN, kR, kR, rho, to_units(kBurst));
    t.row("no", "yes", "AO-ARRoW", pct / 100.0, res.max_queue_cost_units,
          bounds.L, res.collisions,
          verdict(res.max_queue_cost_units < bounds.L, "STABLE (Thm 3)",
                  "exceeded bound!"));
  }

  // ---- Row 3: control allowed, collision-free => CA-ARRoW stable.
  for (int pct : {50, 90}) {
    const util::Ratio rho(pct, 100);
    const auto res =
        run_pt(pt_spec("ca-arrow", kN, kR, rho, kBurst, kHorizon));
    const double bound = core::ca_arrow_bound(kN, kR, rho, to_units(kBurst));
    t.row("yes", "no", "CA-ARRoW", pct / 100.0, res.max_queue_cost_units,
          bound, res.collisions,
          verdict(res.collisions == 0 && res.max_queue_cost_units < bound,
                  "STABLE (Thm 6)", "violated!"));
  }

  // ---- Row 4: everything allowed, rho = 1 => instability (Theorem 5).
  {
    auto chasing_result = [&](Tick horizon) {
      auto spec = pt_spec("ca-arrow", 2, kR, util::Ratio::one(), kBurst,
                          horizon);
      spec.injector.kind = "drain-chasing";  // the Theorem-5 adversary
      return run_pt(spec);
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
          verdict(grows, "queues grow: UNSTABLE (Thm 5)",
                  "unexpectedly flat"));
  }

  std::cout << "== Table I (async rows, R = " << kR << ", n = " << kN
            << ", horizon = " << to_units(kHorizon) << " units) ==\n"
            << t.to_string() << "\n";
}

void print_sync_rows() {
  util::Table t({"protocol", "rho", "max queue (units)", "collided",
                 "control msgs", "verdict"});
  for (int pct : {50, 90}) {
    const auto rrw = run_pt(pt_spec("rrw", kN, 1, util::Ratio(pct, 100), kBurst,
                                    kHorizon, /*synchronous=*/true));
    t.row("RRW (R=1)", pct / 100.0, rrw.max_queue_cost_units, rrw.collisions,
          rrw.control_msgs,
          verdict(rrw.collisions == 0 && rrw.max_queue_cost_units < 1000,
                  "STABLE", "violated!"));
  }
  for (int pct : {50, 90}) {
    const auto mbtf = run_pt(pt_spec("mbtf", kN, 1, util::Ratio(pct, 100),
                                     kBurst, kHorizon, /*synchronous=*/true));
    t.row("MBTF (R=1)", pct / 100.0, mbtf.max_queue_cost_units,
          mbtf.collisions, mbtf.control_msgs,
          verdict(mbtf.max_queue_cost_units < 1000, "STABLE", "violated!"));
  }
  std::cout << "== Table I (synchronous comparison column, R = 1) ==\n"
            << t.to_string() << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_table1_summary — reproduces Fig. 1 / Table I of\n"
               "\"The Impact of Asynchrony on Stability of MAC\" (ICDCS'24)\n\n";
  print_async_rows();
  print_sync_rows();
  return exit_status();
}
