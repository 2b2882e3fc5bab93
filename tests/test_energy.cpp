// The energy subsystem's contract (energy/meter.h, docs/ENERGY.md):
// metering is observation-only — enabling it changes no RunStats, trace
// or fuzz-verdict byte — while the meter itself is exact (slot counts
// reconcile with the engine's own accounting), survives checkpoint/
// resume at arbitrary kill points, and agrees byte-for-byte between the
// engine's dense path and its general path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "energy/meter.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "trace/serialize.h"
#include "verify/campaign.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using energy::EnergyMeter;
using energy::EnergyModel;

// ------------------------------------------------------------- meter unit

TEST(EnergyMeter, ChargesAreExactLinearCombinations) {
  EnergyMeter m(3);
  m.add_transmit(1, 5);
  m.add_idle(1, /*queue_empty=*/false, 7);
  m.add_idle(2, /*queue_empty=*/true, 11);
  m.add_transmit(3);

  const EnergyModel model{true, 4, 2, 1};
  EXPECT_EQ(m.station_charge(model, 1), 5u * 4 + 7u * 2);
  EXPECT_EQ(m.station_charge(model, 2), 11u * 1);
  EXPECT_EQ(m.station_charge(model, 3), 4u);
  EXPECT_EQ(m.total_charge(model), 34u + 11u + 4u);
  EXPECT_EQ(m.peak_station_charge(model), 34u);

  // Re-pricing the same counts under a different cost vector needs no
  // re-simulation — the meter stores counts, not charges.
  const EnergyModel free_listen{true, 4, 0, 0};
  EXPECT_EQ(m.station_charge(free_listen, 1), 20u);
  EXPECT_EQ(m.station_charge(free_listen, 2), 0u);
}

TEST(EnergyMeter, ResetAndEqualityTrackCounts) {
  EnergyMeter a(2), b(2);
  EXPECT_EQ(a, b);
  a.add_transmit(2, 3);
  EXPECT_NE(a, b);
  b.add_transmit(2, 3);
  EXPECT_EQ(a, b);
  a.reset(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.tx_slots(2), 0u);
}

TEST(EnergyMeter, SnapshotRoundTripsExactly) {
  EnergyMeter m(4);
  m.add_transmit(1, 9);
  m.add_idle(2, false, 3);
  m.add_idle(4, true, 100);

  snapshot::Writer w;
  m.save_state(w);
  snapshot::Reader r(w.buffer());
  EnergyMeter loaded(4);
  loaded.load_state(r);
  r.expect_end();
  EXPECT_EQ(loaded, m);
}

TEST(EnergyMeter, LoadRejectsStationCountMismatch) {
  EnergyMeter m(3);
  snapshot::Writer w;
  m.save_state(w);
  snapshot::Reader r(w.buffer());
  EnergyMeter other(2);
  EXPECT_THROW(other.load_state(r), snapshot::SnapshotError);
}

// --------------------------------------------------------- observation-only

/// A scenario exercising contention (collisions, queue drain, busy
/// feedback) so all three billing classes occur.
verify::Scenario contended_scenario(const std::string& protocol) {
  verify::Scenario s;
  s.protocol = protocol;
  s.n = 4;
  s.bound_r = 2;
  s.slot_policy = "perstation";
  s.horizon_units = 300;
  s.seed = 77;
  s.injector.kind = "saturating";
  s.injector.rho = util::Ratio(2, 5);
  s.injector.burst_ticks = 8 * kTicksPerUnit;
  s.injector.pattern = "roundrobin";
  s.injector.seed = 78;
  return s;
}

/// Trace + stats JSON, deliberately *without* the energy block — the
/// bytes that must not move when metering is enabled.
std::string render_artifacts(const verify::Scenario& s,
                             const sim::Engine& engine) {
  std::string out =
      trace::serialize_trace({s.n, s.bound_r}, engine.trace().slots());
  out += metrics::to_json(engine.stats(), &engine.channel_stats());
  return out;
}

TEST(EnergyDeterminism, MeteringChangesNoRunStatsOrTraceByte) {
  for (const char* protocol : {"ao-arrow", "beb", "csma-lbt"}) {
    verify::Scenario off = contended_scenario(protocol);
    verify::Scenario on = off;
    on.energy.enabled = true;
    on.energy.cost_transmit = 3;
    on.energy.cost_listen = 2;
    on.energy.cost_sleep = 1;

    auto engine_off = verify::run_scenario(off);
    auto engine_on = verify::run_scenario(on);

    EXPECT_EQ(render_artifacts(off, *engine_off),
              render_artifacts(on, *engine_on))
        << protocol;

    // Metering-off leaves the meter untouched; metering-on billed every
    // completed slot of every station exactly once.
    const EnergyMeter& idle = engine_off->energy_meter();
    const EnergyModel priced{true, 1, 1, 1};
    EXPECT_EQ(idle.total_charge(priced), 0u) << protocol;

    const EnergyMeter& meter = engine_on->energy_meter();
    const auto& stats = engine_on->stats();
    ASSERT_EQ(meter.n(), stats.station.size());
    for (StationId i = 1; i <= meter.n(); ++i) {
      const auto& st = stats.station[i - 1];
      EXPECT_EQ(meter.tx_slots(i) + meter.listen_slots(i) +
                    meter.sleep_slots(i),
                st.slots)
          << protocol << " station " << i;
      EXPECT_EQ(meter.tx_slots(i), st.transmit_slots)
          << protocol << " station " << i;
    }
    EXPECT_GT(meter.total_charge(engine_on->energy_model()), 0u) << protocol;
  }
}

TEST(EnergyDeterminism, FuzzVerdictsAreUnchangedByMetering) {
  // Generated scenarios with metering force-enabled must produce the
  // same verdict text as with metering force-disabled: energy never
  // feeds back into any oracle-visible behavior.
  const verify::ScenarioGen gen(909);
  int tested = 0;
  for (std::uint64_t i = 0; tested < 4 && i < 64; ++i) {
    verify::Scenario s = gen.generate(i);
    if (s.horizon_units > 150) continue;
    verify::Scenario off = s, on = s;
    off.energy.enabled = false;
    on.energy.enabled = true;
    on.energy.cost_transmit = 5;
    const auto r_off = verify::run_case(off);
    const auto r_on = verify::run_case(on);
    EXPECT_EQ(r_off.ok, r_on.ok) << s.describe();
    EXPECT_EQ(r_off.what, r_on.what) << s.describe();
    ++tested;
  }
  EXPECT_EQ(tested, 4);
}

// -------------------------------------------------------- checkpoint/resume

snapshot::RunSpec energy_spec(std::uint64_t seed) {
  snapshot::RunSpec spec;
  spec.protocol = "rrw";
  spec.n = 3;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(1, 2);
  spec.injector.burst_ticks = 6 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.injector.seed = seed + 1;
  spec.seed = seed;
  spec.horizon_units = 250;
  spec.record_trace = true;
  spec.energy.enabled = true;
  spec.energy.cost_transmit = 7;
  spec.energy.cost_listen = 2;
  spec.energy.cost_sleep = 1;
  return spec;
}

TEST(EnergyCheckpoint, MeterSurvivesKillAnywhereResume) {
  const snapshot::RunSpec spec = energy_spec(31);
  auto control = snapshot::build_engine(spec);
  control->run(sim::until(spec.horizon_units * kTicksPerUnit));

  for (const std::uint64_t kill : {std::uint64_t{1}, std::uint64_t{23},
                                   std::uint64_t{171}}) {
    const std::string path =
        "energy_ckpt_" + std::to_string(kill) + ".snap";
    {
      auto engine = snapshot::build_engine(spec);
      sim::StopCondition stop =
          sim::until(spec.horizon_units * kTicksPerUnit);
      stop.max_total_slots = kill;
      engine->run(stop);
      snapshot::write_checkpoint(path, spec, *engine);
    }
    snapshot::ResumedRun run = snapshot::resume_checkpoint(path);
    EXPECT_EQ(run.spec, spec);
    run.engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
    EXPECT_EQ(run.engine->energy_meter(), control->energy_meter())
        << "killed at " << kill;
    EXPECT_EQ(metrics::to_json(run.engine->stats(), nullptr, true,
                               &run.engine->energy_meter(),
                               &run.engine->energy_model()),
              metrics::to_json(control->stats(), nullptr, true,
                               &control->energy_meter(),
                               &control->energy_model()))
        << "killed at " << kill;
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------------- dense runs

TEST(EnergyCohort, LanesMatchTheirScalarTwinsExactly) {
  // Metered dense runs ("lanes"): ca-arrow, sync, R=1, no trace, so the
  // dense loop and its quiet-run batcher bill the meter; the engine seed
  // and rho vary. Each run's meter, and its whole state snapshot, must
  // equal its twin's on the general loop (a never-true stop predicate).
  struct Telemetry {
    Telemetry() { telemetry::set_enabled(true); }
    ~Telemetry() {
      telemetry::set_enabled(false);
      telemetry::Registry::global().reset_values();
    }
  } on;
  const auto& dense_slots =
      telemetry::Registry::global().counter("engine.dense_slots");
  for (const int rho_pct : {30, 50, 70, 90}) {
    verify::Scenario s = contended_scenario("ca-arrow");
    s.slot_policy = "sync";
    s.bound_r = 1;
    s.record_trace = false;
    s.horizon_units = 2000;
    s.seed = 77 + static_cast<std::uint64_t>(rho_pct);
    s.injector.rho = util::Ratio(rho_pct, 100);
    s.energy.enabled = true;
    s.energy.cost_transmit = 4;
    s.energy.cost_listen = 2;
    s.energy.cost_sleep = 1;
    const Tick horizon = s.horizon_units * kTicksPerUnit;

    auto dense = analysis::build_engine(s);
    ASSERT_TRUE(dense->dense()) << "rho " << rho_pct;
    const std::uint64_t before = dense_slots.value();
    dense->run(sim::until(horizon));
    EXPECT_GT(dense_slots.value(), before) << "rho " << rho_pct;
    auto general = analysis::build_engine(s);
    sim::StopCondition forced = sim::until(horizon);
    forced.predicate = [](const sim::Engine&) { return false; };
    general->run(forced);

    EXPECT_EQ(dense->energy_meter(), general->energy_meter())
        << "rho " << rho_pct;
    EXPECT_GT(dense->energy_meter().total_charge(dense->energy_model()), 0u)
        << "rho " << rho_pct;
    snapshot::Writer dense_bytes, general_bytes;
    dense->save_state(dense_bytes);
    general->save_state(general_bytes);
    EXPECT_EQ(dense_bytes.buffer(), general_bytes.buffer())
        << "rho " << rho_pct;
  }
}

}  // namespace
}  // namespace asyncmac
