// bench_fig2_schedule — regenerates the paper's Fig. 2: a three-station
// transmission schedule on the synchronous channel (where the simple
// binary-search election succeeds within a few slots) next to an
// asynchronous execution of the same stations (where slot stretching
// delays the single successful transmission), rendered to scale.
#include <iostream>

#include "harness.h"
#include "trace/renderer.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

void run_and_render(const char* title, analysis::RunSpec spec, Tick window) {
  spec.record_trace = true;
  auto m = analysis::materials(spec);
  m.injection = messages(spec.n);
  const auto e = engine(std::move(m));
  // A zero drain still runs the ties at the success instant, so the
  // winner sees its ack.
  run_to_first_success(*e, 100000 * U, 0);
  std::cout << "---- " << title << " ----\n";
  std::cout << "SST solved at t = " << to_units(e->now())
            << " units; slots used (per station): ";
  for (StationId id = 1; id <= e->n(); ++id)
    std::cout << e->stats().station[id - 1].slots << " ";
  std::cout << "\n";
  trace::RenderOptions opt;
  opt.to = std::min(e->now(), window);
  opt.columns_per_unit = 6;
  std::cout << trace::render_schedule(e->trace().slots(), opt) << "\n";
}

}  // namespace

int main() {
  std::cout << "bench_fig2_schedule — reproduces Fig. 2 (synchronous vs\n"
               "asynchronous schedules of three stations solving SST)\n\n";

  // Left half of Fig. 2: synchronous execution, station 3 (binary 11:
  // the figure's i3) — here the classic one-slot-per-bit search solves
  // SST within three slots.
  run_and_render("synchronous (R = 1), sync binary-search LE",
                 sst_spec("sync-binary-le", 3, 1, "sync"), 12 * U);
  // Right half: the same stations under bounded asynchrony; the naive
  // search is no longer safe, ABS (with its asymmetric thresholds)
  // needs more slots but still produces the single success.
  run_and_render("bounded asynchrony (R = 2), ABS", sst_spec("abs", 3, 2),
                 60 * U);
  // ABS also runs (and is optimal up to constants) on the synchronous
  // channel — for direct comparison with the first panel.
  run_and_render("synchronous (R = 1), ABS", sst_spec("abs", 3, 1, "sync"),
                 30 * U);
  return 0;
}
