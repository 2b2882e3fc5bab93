// bench_instability — regenerates the Section-V impossibility results:
//
//  * Theorem 4: against collision-free no-control protocols the adversary
//    forces a collision or an arbitrarily large queue — shown against the
//    silence-count TDMA strawman and against RRW, for growing L.
//  * Theorem 5: at rho = 1 no protocol is stable — shown as queue-growth
//    time series for AO-ARRoW and CA-ARRoW under the drain-chasing
//    adversary, with the contrast line at rho = 0.95 staying flat.
#include <iostream>

#include "adversary/collision_forcer.h"
#include "analysis/registry.h"
#include "harness.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

void print_theorem4() {
  util::Table t({"protocol", "L", "R", "outcome", "alpha", "beta",
                 "X (units)", "Y (units)", "collision time (units)"});
  auto run_case = [&](const char* name, sim::ProtocolMaker f,
                      std::uint64_t L, std::uint32_t R) {
    const auto out =
        adversary::force_collision_or_overflow(f, util::Ratio(1, 2), L, R);
    const char* verdict = "no transmission";
    if (out.kind == adversary::CollisionForceOutcome::Kind::kCollisionForced)
      verdict = "COLLISION FORCED";
    if (out.kind == adversary::CollisionForceOutcome::Kind::kQueueOverflow)
      verdict = "QUEUE OVERFLOW";
    t.row(name, L, R, verdict, out.alpha, out.beta, to_units(out.x_ticks),
          to_units(out.y_ticks), to_units(out.collision_time));
  };

  const sim::ProtocolMaker tdma = analysis::protocol_maker("silence-tdma");
  const sim::ProtocolMaker rrw = analysis::protocol_maker("rrw");
  for (std::uint64_t L : {10u, 50u, 200u}) run_case("silence-TDMA", tdma, L, 2);
  run_case("silence-TDMA", tdma, 50, 4);
  run_case("silence-TDMA", tdma, 50, 8);
  for (std::uint64_t L : {10u, 50u}) run_case("RRW", rrw, L, 2);

  std::cout << "== Theorem 4: no-control + collision-free => no positive "
               "stable rate ==\n"
            << t.to_string()
            << "(every row must end in a forced collision or an overflow "
               "beyond L)\n\n";
}

void print_theorem5() {
  util::Table t({"protocol", "rho", "t (units)", "queued cost (units)"});
  util::CsvWriter csv("bench_instability.csv",
                      {"protocol", "rho", "t_units", "queue_units"});

  // The Theorem-5 drain-chasing adversary against n = 2, R = 2.
  auto series = [&](const char* name, const char* protocol,
                    util::Ratio rho) {
    auto spec = pt_spec(protocol, 2, 2, rho, 16 * U, 500000 * U);
    spec.injector.kind = "drain-chasing";
    const auto e = analysis::build_engine(spec);
    for (int chunk = 1; chunk <= 5; ++chunk) {
      e->run(sim::until(chunk * 100000 * U));
      t.row(name, rho.to_double(), to_units(e->now()),
            to_units(e->stats().queued_cost));
      csv.row(name, rho.to_double(), to_units(e->now()),
              to_units(e->stats().queued_cost));
    }
  };

  series("AO-ARRoW", "ao-arrow", util::Ratio::one());
  series("CA-ARRoW", "ca-arrow", util::Ratio::one());
  series("CA-ARRoW", "ca-arrow", util::Ratio(95, 100));

  std::cout << "== Theorem 5: rho = 1 is unstable for every protocol ==\n"
            << t.to_string()
            << "(rho=1 series must grow with t; the rho=0.95 contrast "
               "stays flat; series in bench_instability.csv)\n\n";
}

}  // namespace

int main() {
  std::cout << "bench_instability — reproduces the Section V "
               "impossibility results (Theorems 4 and 5)\n\n";
  print_theorem4();
  print_theorem5();
  return 0;
}
