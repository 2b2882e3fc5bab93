// The k-restrained channel (arXiv 1808.02216, channel/transmission.h):
// at most k concurrent on-air transmissions are admitted; excess ones
// jam the medium or are rejected at the radio. Pinned here: the exact
// jam/reject semantics at the Ledger level, agreement between the
// optimized Ledger and the naive ReferenceChannel across an adversarial
// protocol x (k, mode) matrix, repro JSON round-trips (including
// old-format files without the channel fields), ScenarioGen coverage of
// the restrained/energy parameter space, checkpoint/resume and the live
// stack's parity with the simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "snapshot/checkpoint.h"
#include "trace/serialize.h"
#include "verify/campaign.h"
#include "verify/reference_channel.h"
#include "verify/repro.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using channel::Admission;
using channel::Ledger;
using channel::RestrainedSpec;
using channel::Transmission;

Transmission tx(StationId station, Tick begin, Tick end) {
  Transmission t;
  t.station = station;
  t.begin = begin;
  t.end = end;
  return t;
}

// -------------------------------------------------------- ledger semantics

TEST(RestrainedLedger, JamModeExcessTransmissionsDestroyEveryOverlap) {
  Ledger ledger(/*keep_history=*/true, RestrainedSpec{1, /*jam=*/true});
  ledger.add(tx(1, 0, 10));
  ledger.add(tx(2, 5, 15));  // over capacity: jams, still on the medium
  ledger.finalize_until(20);

  const auto& w = ledger.window();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].admission, static_cast<std::uint8_t>(Admission::kOk));
  EXPECT_EQ(w[1].admission, static_cast<std::uint8_t>(Admission::kJammed));
  // The jammed entry occupies the medium, so BOTH collide.
  EXPECT_FALSE(w[0].successful);
  EXPECT_FALSE(w[1].successful);
  EXPECT_EQ(ledger.stats().jammed, 1u);
  EXPECT_EQ(ledger.stats().rejected, 0u);
  EXPECT_EQ(ledger.stats().successful, 0u);
  EXPECT_EQ(ledger.stats().collided, 2u);
}

TEST(RestrainedLedger, RejectModeExcessTransmissionsNeverReachTheMedium) {
  Ledger ledger(/*keep_history=*/true, RestrainedSpec{1, /*jam=*/false});
  ledger.add(tx(1, 0, 10));
  ledger.add(tx(2, 5, 15));  // over capacity: suppressed at the radio
  ledger.finalize_until(20);

  const auto& w = ledger.window();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1].admission, static_cast<std::uint8_t>(Admission::kRejected));
  // The rejected entry is invisible: the admitted one succeeds solo.
  EXPECT_TRUE(w[0].successful);
  EXPECT_TRUE(ledger.transmission_successful(1, 10));
  EXPECT_FALSE(w[1].successful);
  EXPECT_TRUE(w[1].decided);  // decided-unsuccessful right at add()
  EXPECT_EQ(ledger.stats().rejected, 1u);
  EXPECT_EQ(ledger.stats().successful, 1u);
  // Rejected counts as collided too: successful + collided == decided.
  EXPECT_EQ(ledger.stats().collided, 1u);
}

TEST(RestrainedLedger, RejectedTransmissionsAreInvisibleToFeedback) {
  Ledger ledger(/*keep_history=*/true, RestrainedSpec{1, /*jam=*/false});
  ledger.add(tx(1, 0, 10));
  ledger.add(tx(2, 5, 15));  // rejected

  // [10, 15) is touched only by the rejected interval: silence, not busy.
  EXPECT_EQ(ledger.feedback(10, 15), Feedback::kSilence);
  // Station 1's own slot hears its solo success as an ack.
  EXPECT_EQ(ledger.feedback(0, 10), Feedback::kAck);
}

TEST(RestrainedLedger, CapacityTwoAdmitsPairsAndJamsTheThird) {
  Ledger ledger(/*keep_history=*/true, RestrainedSpec{2, /*jam=*/true});
  ledger.add(tx(1, 0, 10));
  ledger.add(tx(2, 2, 12));
  ledger.add(tx(3, 4, 14));  // third concurrent: over capacity
  // A later transmission beginning after the first two ended is admitted
  // again — admission is an on-air census, not a global quota.
  ledger.add(tx(1, 20, 30));
  ledger.finalize_until(40);

  const auto& w = ledger.window();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0].admission, static_cast<std::uint8_t>(Admission::kOk));
  EXPECT_EQ(w[1].admission, static_cast<std::uint8_t>(Admission::kOk));
  EXPECT_EQ(w[2].admission, static_cast<std::uint8_t>(Admission::kJammed));
  EXPECT_EQ(w[3].admission, static_cast<std::uint8_t>(Admission::kOk));
  EXPECT_TRUE(w[3].successful);  // solo after the pile-up cleared
}

// --------------------------------------------- ledger vs reference channel

TEST(RestrainedDifferential, LedgerMatchesNaiveReferenceOnDenseStreams) {
  // A dense synthetic stream (no engine in the loop): every combination
  // of overlap depth the census can see, replayed through both
  // implementations under all four restrained configurations.
  const std::vector<Transmission> stream = {
      tx(1, 0, 8),   tx(2, 1, 6),   tx(3, 2, 10),  tx(4, 8, 12),
      tx(1, 9, 15),  tx(2, 12, 20), tx(3, 12, 14), tx(4, 13, 21),
      tx(1, 22, 25), tx(2, 22, 30), tx(3, 23, 27), tx(4, 26, 31),
  };
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    for (const bool jam : {true, false}) {
      const RestrainedSpec spec{k, jam};
      Ledger ledger(/*keep_history=*/true, spec);
      verify::ReferenceChannel ref;
      ref.set_restrained(spec);
      for (const Transmission& t : stream) {
        ledger.add(t);
        ref.add(t);
      }
      ledger.finalize_until(100);
      ref.cache_success();

      const auto& w = ledger.window();
      ASSERT_EQ(w.size(), stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(w[i].admission, static_cast<std::uint8_t>(ref.admission(i)))
            << "k=" << k << " jam=" << jam << " tx " << i;
        EXPECT_EQ(w[i].successful, ref.successful(i))
            << "k=" << k << " jam=" << jam << " tx " << i;
      }
    }
  }
}

TEST(RestrainedDifferential, EngineMatrixPassesTheChannelOracle) {
  // End-to-end differential matrix: contention-heavy protocols under
  // every restrained mode, through verify::run_case — which replays the
  // trace through a fresh Ledger AND the O(T^2) reference, cross-checks
  // admissions, and runs the dense-path oracle on top.
  std::uint64_t jammed = 0, rejected = 0;
  for (const char* protocol : {"aloha", "beb", "csma-lbt"}) {
    for (const std::uint32_t k : {1u, 2u}) {
      for (const bool jam : {true, false}) {
        verify::Scenario s;
        s.protocol = protocol;
        s.n = 4;
        s.bound_r = 2;
        s.slot_policy = "perstation";
        s.horizon_units = 120;
        s.seed = 1000 + k * 10 + (jam ? 1 : 0);
        s.injector.kind = "saturating";
        s.injector.rho = util::Ratio(4, 5);
        s.injector.burst_ticks = 8 * kTicksPerUnit;
        s.injector.pattern = "roundrobin";
        s.injector.seed = s.seed + 1;
        s.restrained.k = k;
        s.restrained.jam = jam;

        const auto r = verify::run_case(s);
        EXPECT_TRUE(r.ok) << s.describe() << "\n" << r.what;

        const auto engine = verify::run_scenario(s);
        jammed += engine->ledger().stats().jammed;
        rejected += engine->ledger().stats().rejected;
      }
    }
  }
  // The matrix actually exercised both overflow paths.
  EXPECT_GT(jammed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------- repro round-trip

TEST(RestrainedRepro, JsonRoundTripsChannelAndEnergyFields) {
  verify::Scenario s;
  s.protocol = "aloha";
  s.n = 3;
  s.bound_r = 2;
  s.slot_policy = "perstation";
  s.horizon_units = 60;
  s.seed = 5;
  s.injector.kind = "saturating";
  s.injector.rho = util::Ratio(1, 2);
  s.injector.burst_ticks = 4 * kTicksPerUnit;
  s.injector.pattern = "single";
  s.injector.single_target = 2;
  s.injector.seed = 6;
  s.restrained.k = 2;
  s.restrained.jam = false;
  s.energy.enabled = true;
  s.energy.cost_transmit = 9;
  s.energy.cost_listen = 3;
  s.energy.cost_sleep = 1;

  const verify::Repro repro = verify::make_repro(s, "synthetic violation");
  ASSERT_FALSE(repro.trace_text.empty());
  const verify::Repro parsed = verify::parse_repro_json(verify::to_json(repro));
  EXPECT_EQ(parsed.scenario, s);
  EXPECT_EQ(parsed.violation, repro.violation);
  EXPECT_EQ(parsed.trace_text, repro.trace_text);

  // And the parsed scenario replays the embedded trace bit-for-bit.
  const verify::ReplayOutcome outcome = verify::replay_repro(parsed);
  EXPECT_TRUE(outcome.trace_matches);
}

TEST(RestrainedRepro, OldFormatFilesWithoutChannelFieldsStillParse) {
  // A pre-restrained, pre-energy repro file: the channel fields are
  // absent and must default to the unrestrained, unmetered channel those
  // files were recorded on.
  const std::string old_json = R"({
  "format": "asyncmac-fuzz-repro",
  "version": 1,
  "violation": "",
  "scenario": {
    "protocol": "ao-arrow",
    "n": 2,
    "r": 2,
    "slot_policy": "perstation",
    "horizon_units": 50,
    "seed": 7,
    "case_seed": 0,
    "injector": {
      "kind": "saturating",
      "rho_num": 1,
      "rho_den": 2,
      "burst_ticks": 4000,
      "pattern": "roundrobin",
      "single_target": 1,
      "period_ticks": 8000,
      "drain_a": 0,
      "drain_b": 0,
      "seed": 8
    }
  },
  "trace": ""
})";
  const verify::Repro parsed = verify::parse_repro_json(old_json);
  EXPECT_EQ(parsed.scenario.restrained.k, 0u);
  EXPECT_TRUE(parsed.scenario.restrained.jam);
  EXPECT_FALSE(parsed.scenario.energy.enabled);
  EXPECT_EQ(parsed.scenario.energy.cost_transmit, 1u);
  EXPECT_EQ(parsed.scenario.energy.cost_listen, 1u);
  EXPECT_EQ(parsed.scenario.energy.cost_sleep, 0u);
}

// ----------------------------------------------------- generator coverage

TEST(RestrainedScenarioGen, SamplesTheChannelVariantSpace) {
  const verify::ScenarioGen gen(424242);
  int restrained = 0, jam = 0, reject = 0, energy = 0, csma = 0;
  const std::uint64_t kCases = 300;
  for (std::uint64_t i = 0; i < kCases; ++i) {
    const verify::Scenario s = gen.generate(i);
    if (s.restrained.k != 0) {
      ++restrained;
      ++(s.restrained.jam ? jam : reject);
      EXPECT_GE(s.restrained.k, 1u);
      EXPECT_LE(s.restrained.k, s.n);
    }
    if (s.energy.enabled) {
      ++energy;
      EXPECT_GE(s.energy.cost_transmit, 1u);
      EXPECT_LE(s.energy.cost_transmit, 8u);
    }
    if (s.protocol == "csma-lbt") ++csma;
    // Regeneration from the case seed is exact, channel fields included.
    EXPECT_EQ(s, verify::scenario_from_seed(s.case_seed));
  }
  // ~30% draws each; demand a loose floor so the test is not brittle.
  EXPECT_GT(restrained, 50);
  EXPECT_GT(jam, 10);
  EXPECT_GT(reject, 10);
  EXPECT_GT(energy, 50);
  EXPECT_GT(csma, 10);  // the new baseline is actually in the pool
}

// ---------------------------------------------------- checkpoint + live

snapshot::RunSpec restrained_spec(bool jam) {
  snapshot::RunSpec spec;
  spec.protocol = "aloha";
  spec.n = 4;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(3, 4);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.injector.seed = 91;
  spec.seed = 90;
  spec.horizon_units = 200;
  spec.record_trace = true;
  spec.restrained.k = 1;
  spec.restrained.jam = jam;
  return spec;
}

std::string render(const snapshot::RunSpec& spec, const sim::Engine& engine) {
  std::string out = trace::serialize_trace({spec.n, spec.bound_r},
                                           engine.trace().slots());
  out += metrics::to_json(engine.stats(), &engine.channel_stats());
  return out;
}

TEST(RestrainedCheckpoint, ResumeIsByteIdenticalInBothModes) {
  for (const bool jam : {true, false}) {
    const snapshot::RunSpec spec = restrained_spec(jam);
    auto control = snapshot::build_engine(spec);
    control->run(sim::until(spec.horizon_units * kTicksPerUnit));
    // The run actually hit the admission path it claims to cover.
    EXPECT_GT(jam ? control->ledger().stats().jammed
                  : control->ledger().stats().rejected,
              0u);

    const std::string path =
        std::string("restrained_ckpt_") + (jam ? "jam" : "reject") + ".snap";
    {
      auto engine = snapshot::build_engine(spec);
      sim::StopCondition stop =
          sim::until(spec.horizon_units * kTicksPerUnit);
      stop.max_total_slots = 37;
      engine->run(stop);
      snapshot::write_checkpoint(path, spec, *engine);
    }
    snapshot::ResumedRun run = snapshot::resume_checkpoint(path);
    EXPECT_EQ(run.spec, spec);
    run.engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
    EXPECT_EQ(render(spec, *run.engine), render(spec, *control))
        << (jam ? "jam" : "reject");
    std::remove(path.c_str());
  }
}

TEST(RestrainedLive, VirtualStackMatchesTheSimulator) {
  snapshot::RunSpec spec = restrained_spec(/*jam=*/true);
  spec.horizon_units = 120;
  spec.energy.enabled = true;
  spec.energy.cost_transmit = 3;

  const live::VirtualRunReport rep = live::run_virtual(spec);

  auto engine = snapshot::build_engine(spec);
  engine->run(sim::until(spec.horizon_units * kTicksPerUnit));

  EXPECT_EQ(trace::serialize_trace({spec.n, spec.bound_r}, rep.trace),
            trace::serialize_trace({spec.n, spec.bound_r},
                                   engine->trace().slots()));
  EXPECT_EQ(metrics::to_json(rep.stats, &rep.channel),
            metrics::to_json(engine->stats(), &engine->channel_stats()));
  EXPECT_EQ(rep.energy, engine->energy_meter());
  EXPECT_GT(rep.channel.jammed, 0u);
}

}  // namespace
}  // namespace asyncmac
