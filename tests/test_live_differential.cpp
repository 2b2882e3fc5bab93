// The sim-vs-live differential (the tentpole guarantee of live mode):
// every golden-corpus scenario run through the virtual-clock live stack
// (daemon + station machines + VirtualNet, live/virtual_net.h) must
// reproduce sim::Engine byte-for-byte — the serialized per-slot schedule
// (actions AND feedback), the RunStats/channel-stats JSON, the backlog
// samples at every chunk boundary, and the stability verdict.
//
// This holds because with zero emulation knobs every datagram arrives at
// its send tick and every slot timer fires exactly on time, so the
// daemon's wave processing replays the engine's event loop exactly
// (live/daemon.h explains the phase argument). Any divergence in either
// implementation breaks these comparisons loudly.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/stability.h"
#include "engine_golden_cases.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "trace/serialize.h"

namespace asyncmac::live {
namespace {

using testing::EngineGoldenCase;

snapshot::RunSpec spec_from_case(const EngineGoldenCase& c) {
  snapshot::RunSpec spec;
  spec.protocol = c.protocol;
  spec.n = c.n;
  spec.bound_r = c.bound_r;
  spec.slot_policy = c.slot_policy;
  spec.has_injector = !c.no_injector;
  spec.injector = c.injector;
  spec.seed = c.seed;
  spec.horizon_units = c.horizon_units;
  spec.record_trace = true;
  spec.restrained = c.restrained;
  spec.energy = c.energy;
  return spec;
}

struct SimResult {
  std::string trace;
  std::string json;
  std::vector<Tick> samples;
};

/// The control: sim::Engine from the same RunSpec, run in `chunks` legs
/// with the backlog sampled at each boundary — exactly what
/// analysis::probe_stability does, and what the live daemon mirrors.
SimResult run_sim(const snapshot::RunSpec& spec, int chunks) {
  auto engine = snapshot::build_engine(spec);
  const Tick horizon = spec.horizon_units * kTicksPerUnit;
  const Tick step = horizon / chunks;
  SimResult r;
  for (int k = 1; k <= chunks; ++k) {
    engine->run(sim::until(k * step));
    r.samples.push_back(engine->stats().queued_cost);
  }
  r.trace = trace::serialize_trace({spec.n, spec.bound_r},
                                   engine->trace().slots());
  r.json = metrics::to_json(engine->stats(), &engine->channel_stats());
  return r;
}

TEST(LiveDifferential, GoldenCorpusIsByteIdentical) {
  constexpr int kChunks = 8;
  int compared = 0;
  for (const EngineGoldenCase& c : testing::engine_golden_cases()) {
    SCOPED_TRACE(c.name);
    const snapshot::RunSpec spec = spec_from_case(c);
    const SimResult sim = run_sim(spec, kChunks);

    VirtualRunOptions opt;
    opt.chunks = kChunks;
    const VirtualRunReport rep = run_virtual(spec, opt);
    ASSERT_TRUE(rep.completed);
    EXPECT_FALSE(rep.daemon_failed) << rep.reason;
    EXPECT_EQ(rep.station_exit_max, 0);

    // The schedule, byte for byte: slot actions and feedback sequences.
    EXPECT_EQ(trace::serialize_trace({spec.n, spec.bound_r}, rep.trace),
              sim.trace);
    // All statistics, byte for byte (includes channel stats).
    EXPECT_EQ(metrics::to_json(rep.stats, &rep.channel), sim.json);
    // Backlog samples at every chunk boundary, and the verdict derived
    // from them with the shared decision procedure.
    EXPECT_EQ(rep.samples, sim.samples);
    EXPECT_EQ(rep.verdict, analysis::classify_backlog_samples(sim.samples));
    ++compared;
  }
  // The acceptance bar is >= 3 scenarios; the corpus carries more.
  EXPECT_GE(compared, 3);
}

// The differential must also hold for scenarios far from the corpus:
// sparse traffic makes ca-arrow stations hold the turn with an empty
// queue, so control (empty-signal) transmissions flow end to end — a
// channel regime the saturating corpus cases never enter.
TEST(LiveDifferential, ControlModelProtocolMatches) {
  snapshot::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 3;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(1, 20);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.injector.seed = 3;
  spec.seed = 19;
  spec.horizon_units = 500;
  spec.record_trace = true;

  const SimResult sim = run_sim(spec, 8);
  const VirtualRunReport rep = run_virtual(spec);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(trace::serialize_trace({spec.n, spec.bound_r}, rep.trace),
            sim.trace);
  EXPECT_EQ(metrics::to_json(rep.stats, &rep.channel), sim.json);
  EXPECT_EQ(rep.samples, sim.samples);
  EXPECT_GT(rep.channel.control_transmissions, 0u);
}

// An overloaded scenario must produce the same non-stable verdict on
// both sides (the differential is only interesting if verdicts can
// actually differ from kStable).
TEST(LiveDifferential, OverloadVerdictMatches) {
  snapshot::RunSpec spec;
  spec.protocol = "aloha";
  spec.n = 4;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(1, 1);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.seed = 9;
  spec.horizon_units = 2000;
  spec.record_trace = false;

  const SimResult sim = run_sim(spec, 8);
  const VirtualRunReport rep = run_virtual(spec);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.samples, sim.samples);
  const analysis::Verdict expect =
      analysis::classify_backlog_samples(sim.samples);
  EXPECT_EQ(rep.verdict, expect);
  EXPECT_NE(rep.verdict, analysis::Verdict::kStable);
  EXPECT_EQ(metrics::to_json(rep.stats, &rep.channel), sim.json);
}

}  // namespace
}  // namespace asyncmac::live
