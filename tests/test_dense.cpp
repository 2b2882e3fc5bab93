// The engine's dense path against its general path — the contract of
// sim/engine.h: a dense() run that run() takes through the dense loop
// must leave exactly the state the same run leaves when it is taken
// event by event. A never-true stop predicate forces the general loop,
// so every test below runs a dense engine and a twin built from the same
// materials and compares full save_state snapshots — queues, RNG
// streams, protocol state, committed slots, ledger, metrics, energy
// meter, delivery log and engine cursors. Every test also checks that
// the dense loop really ran (dense() and engine.dense_slots), so a change
// that quietly switches it off fails here.
//
// The suite and test names are those these checks had when a lane
// engine ran them: a "lane" is now one dense run, its "scalar twin" the
// same run on the general loop.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"
#include "engine_golden_cases.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using testing::EngineGoldenCase;

std::vector<std::uint8_t> bytes(const sim::Engine& e) {
  snapshot::Writer w;
  e.save_state(w);
  return w.take();
}

std::unique_ptr<sim::Engine> engine_from(sim::EngineMaterials m) {
  return std::make_unique<sim::Engine>(std::move(m.cfg), std::move(m.protocols),
                                       std::move(m.slot_policy),
                                       std::move(m.injection));
}

/// `stop` with a never-true predicate: run() takes the general loop.
sim::StopCondition general(sim::StopCondition stop) {
  stop.predicate = [](const sim::Engine&) { return false; };
  return stop;
}

/// engine.dense_slots while the guard lives (telemetry on).
class DenseSlots {
 public:
  DenseSlots() { telemetry::set_enabled(true); }
  ~DenseSlots() {
    telemetry::set_enabled(false);
    telemetry::Registry::global().reset_values();
  }
  DenseSlots(const DenseSlots&) = delete;
  DenseSlots& operator=(const DenseSlots&) = delete;

  std::uint64_t count() const { return counter_.value(); }

 private:
  const telemetry::Counter& counter_ =
      telemetry::Registry::global().counter("engine.dense_slots");
};

/// Run `dense` to `stop` and `twin` to the same stop on the general loop.
/// Every event of the dense engine's run must have been a dense one, and
/// the two must end in the same state.
void expect_same_run(sim::Engine& dense, sim::Engine& twin,
                     const sim::StopCondition& stop, const DenseSlots& slots,
                     const std::string& what) {
  ASSERT_TRUE(dense.dense()) << what;
  const std::uint64_t dense_before = slots.count();
  const std::uint64_t events_before = dense.stats().total_slots;
  dense.run(stop);
  twin.run(general(stop));
  EXPECT_EQ(slots.count() - dense_before,
            dense.stats().total_slots - events_before)
      << what;
  EXPECT_EQ(bytes(dense), bytes(twin)) << what;
}

/// A dense run: ca-arrow under `policy` (sync: 1-unit slots, max: R
/// units), saturating round-robin traffic at rho 1/2.
sim::EngineMaterials dense_materials(std::uint64_t seed,
                                     const std::string& policy = "max",
                                     std::uint32_t n = 5, std::uint32_t r = 3) {
  sim::EngineMaterials m;
  m.cfg.n = n;
  m.cfg.bound_r = r;
  m.cfg.seed = seed;
  m.cfg.record_deliveries = true;
  m.protocols = analysis::make_protocols("ca-arrow", n);
  m.slot_policy = adversary::make_slot_policy(policy, n, r, 1);
  adversary::InjectorSpec inj;
  inj.kind = "saturating";
  inj.rho = util::Ratio(1, 2);
  inj.burst_ticks = 8 * kTicksPerUnit;
  inj.pattern = "roundrobin";
  inj.seed = seed + 1;
  m.injection = adversary::make_injector(inj);
  return m;
}

/// A golden case's materials, untraced.
sim::EngineMaterials golden_materials(const EngineGoldenCase& c) {
  sim::EngineMaterials m;
  m.cfg.n = c.n;
  m.cfg.bound_r = c.bound_r;
  m.cfg.seed = c.seed;
  m.cfg.record_deliveries = true;
  m.protocols = analysis::make_protocols(c.protocol, c.n);
  m.slot_policy =
      adversary::make_slot_policy(c.slot_policy, c.n, c.bound_r, c.seed);
  m.injection = c.no_injector ? nullptr : adversary::make_injector(c.injector);
  return m;
}

// Every golden corpus case's uniform CA-ARRoW variants: ca-arrow under
// sync and under max, with the case's n, R, injector (the adaptive
// maxqueue and drain-chasing ones included) and seed.
TEST(CohortGolden, ByteIdentityAcrossCorpus) {
  const DenseSlots slots;
  for (EngineGoldenCase c : testing::engine_golden_cases()) {
    c.protocol = "ca-arrow";
    for (const char* policy : {"sync", "max"}) {
      c.slot_policy = policy;
      auto dense = engine_from(golden_materials(c));
      auto twin = engine_from(golden_materials(c));
      expect_same_run(*dense, *twin,
                      sim::until(c.horizon_units * kTicksPerUnit), slots,
                      c.name + " / " + policy);
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// Generated ca-arrow scenarios the dense path takes, with whatever
// injector, channel variant and energy model the generator draws, run
// untraced to half the horizon and then to the horizon.
TEST(CohortScenario, GeneratedScenariosByteIdentity) {
  const DenseSlots slots;
  verify::ScenarioGen gen(0xC0480u, {"ca-arrow"});
  int drawn = 0;
  for (std::uint64_t index = 0; drawn < 6; ++index) {
    ASSERT_LT(index, 200u) << "too few dense draws";
    verify::Scenario s = gen.generate(index);
    s.record_trace = false;
    auto dense = analysis::build_engine(s);
    if (!dense->dense()) continue;
    ++drawn;
    auto twin = analysis::build_engine(s);
    const Tick horizon = s.horizon_units * kTicksPerUnit;
    for (const Tick stop : {horizon / 2, horizon})
      expect_same_run(*dense, *twin, sim::until(stop), slots,
                      s.describe() + " to " + std::to_string(stop));
  }
  EXPECT_GT(slots.count(), 0u);
}

// Runs that share protocol, policy, n, R and seed but differ in injector
// parameters and kinds, one of them without an injector.
TEST(Cohort, ParamVaryingLanesByteIdentity) {
  std::vector<adversary::InjectorSpec> specs(4);
  specs[0].rho = util::Ratio(1, 2);
  specs[1].rho = util::Ratio(1, 4);  // halved rate
  specs[1].burst_ticks = 16 * kTicksPerUnit;  // doubled burst
  specs[2].pattern = "single";  // different cost-bucket targeting
  specs[2].single_target = 2;
  specs[3].kind = "drain-chasing";  // different injector kind entirely
  specs[3].drain_a = 1;
  specs[3].drain_b = 3;
  auto run = [&](std::size_t k) {
    sim::EngineMaterials m = dense_materials(55);
    m.injection =
        k < specs.size() ? adversary::make_injector(specs[k]) : nullptr;
    return m;
  };
  const DenseSlots slots;
  for (std::size_t k = 0; k <= specs.size(); ++k) {
    auto dense = engine_from(run(k));
    auto twin = engine_from(run(k));
    expect_same_run(*dense, *twin, sim::until(300 * kTicksPerUnit), slots,
                    "run " + std::to_string(k));
  }
  EXPECT_GT(slots.count(), 0u);
}

// Kill-anywhere: a dense run killed at a cut — its snapshot loaded into a
// fresh engine that runs on — continues exactly as the uninterrupted
// general run. Swept across prune cadences (every event, 16, and one so
// sparse it never fires) so cuts land before, between and on prune
// boundaries. Before any run the two engines hold the same bytes.
TEST(Cohort, KillAnywhereByteIdentityAcrossPruneCadences) {
  const DenseSlots slots;
  for (const std::uint64_t prune : {std::uint64_t{1}, std::uint64_t{16},
                                    std::uint64_t{4096}}) {
    auto materials = [prune] {
      sim::EngineMaterials m = dense_materials(600, "sync");
      m.cfg.prune_interval = prune;
      return m;
    };
    auto dense = engine_from(materials());
    auto twin = engine_from(materials());
    EXPECT_EQ(bytes(*dense), bytes(*twin)) << "prune=" << prune;
    for (const Tick cut_units : {3, 17, 40, 111, 256}) {
      expect_same_run(*dense, *twin, sim::until(cut_units * kTicksPerUnit),
                      slots,
                      "prune=" + std::to_string(prune) +
                          " cut=" + std::to_string(cut_units));
      const std::vector<std::uint8_t> saved = bytes(*dense);
      auto resumed = engine_from(materials());
      snapshot::Reader r(saved);
      resumed->load_state(r);
      dense = std::move(resumed);
    }
  }
}

// Stops that land mid-round and mid-batch: slot-count stops of every
// size modulo n, and time stops between round ends, interleaved on one
// dense engine and its twin, compared at every stop.
TEST(Cohort, StaggeredStopsRetireLanesMidRun) {
  const DenseSlots slots;
  for (const char* policy : {"sync", "max"}) {
    auto dense = engine_from(dense_materials(1000, policy));
    auto twin = engine_from(dense_materials(1000, policy));
    Tick next_time = 0;
    for (std::uint64_t k = 1; k <= 40; ++k) {
      sim::StopCondition stop;
      if (k % 4 == 0) {
        next_time = std::max(next_time, dense->now()) +
                    static_cast<Tick>(k % 7 + 1) * kTicksPerUnit +
                    kTicksPerUnit / 2;
        stop.max_time = next_time;
      } else {
        stop.max_total_slots = dense->stats().total_slots + (k * 13) % 37 + 1;
      }
      expect_same_run(*dense, *twin, stop, slots,
                      std::string(policy) + " stop " + std::to_string(k));
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// The prune cadence with channel history archiving: a small prune
// interval fires many prunes, and runs stopped at different prune phases
// must serialize as their twins do.
TEST(Cohort, PruneCadenceWithHistoryByteIdentity) {
  const DenseSlots slots;
  auto materials = [] {
    sim::EngineMaterials m = dense_materials(300);
    m.cfg.prune_interval = 16;
    m.cfg.keep_channel_history = true;
    return m;
  };
  for (const Tick horizon : {900, 967, 1034, 1101}) {
    auto dense = engine_from(materials());
    auto twin = engine_from(materials());
    expect_same_run(*dense, *twin, sim::until(horizon * kTicksPerUnit), slots,
                    "horizon " + std::to_string(horizon));
  }
  EXPECT_GT(slots.count(), 0u);
}

// The energy meter under the dense loop and its batcher, on both
// policies: meters and snapshots equal the twin's.
TEST(Cohort, MeteredRunByteIdentity) {
  const DenseSlots slots;
  for (const char* policy : {"sync", "max"}) {
    auto materials = [policy] {
      sim::EngineMaterials m = dense_materials(41, policy);
      m.cfg.energy.enabled = true;
      m.cfg.energy.cost_transmit = 4;
      m.cfg.energy.cost_listen = 2;
      m.cfg.energy.cost_sleep = 1;
      return m;
    };
    auto dense = engine_from(materials());
    auto twin = engine_from(materials());
    expect_same_run(*dense, *twin, sim::until(500 * kTicksPerUnit), slots,
                    policy);
    EXPECT_EQ(dense->energy_meter(), twin->energy_meter()) << policy;
    EXPECT_GT(dense->energy_meter().total_charge(dense->energy_model()), 0u);
  }
}

// A k-restrained channel, in jam mode and in reject mode (the delivery
// then confirms that the ack is the station's own).
TEST(Cohort, RestrainedChannelByteIdentity) {
  const DenseSlots slots;
  for (const bool jam : {true, false}) {
    auto materials = [jam] {
      sim::EngineMaterials m = dense_materials(73, "sync");
      m.cfg.restrained = channel::RestrainedSpec{1, jam};
      return m;
    };
    auto dense = engine_from(materials());
    auto twin = engine_from(materials());
    expect_same_run(*dense, *twin, sim::until(400 * kTicksPerUnit), slots,
                    jam ? "jam" : "reject");
    EXPECT_GT(dense->stats().delivered_packets, 0u);
  }
}

// step() and run() interleave: a dense run continues from where step()
// left the schedule (mid-round), and step() from where a dense run wrote
// its state back.
TEST(Cohort, RunAfterStepAndStepAfterRun) {
  const DenseSlots slots;
  auto dense = engine_from(dense_materials(7, "sync"));
  auto twin = engine_from(dense_materials(7, "sync"));
  for (int round = 1; round <= 6; ++round) {
    expect_same_run(*dense, *twin,
                    sim::until(static_cast<Tick>(37 * round) * kTicksPerUnit),
                    slots, "run " + std::to_string(round));
    for (int k = 0; k < round; ++k) {
      ASSERT_TRUE(dense->step());
      ASSERT_TRUE(twin->step());
      EXPECT_EQ(bytes(*dense), bytes(*twin))
          << "step " << k << " after run " << round;
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// The dense path is the constructor's choice: ca-arrow on one fixed slot
// length for every station. Other protocols, a mixed protocol set,
// variable or per-station lengths run on the general loop — dense() is
// false and run() adds no dense slot.
TEST(Cohort, RefusesIneligibleLanes) {
  const DenseSlots slots;
  auto with = [](const std::string& policy, std::uint32_t n, std::uint32_t r,
                 const std::string& protocol = "ca-arrow") {
    sim::EngineMaterials m = dense_materials(3, policy, n, r);
    m.protocols = analysis::make_protocols(protocol, n);
    return m;
  };
  struct Shape {
    const char* policy;
    std::uint32_t n, r;
  };
  // perstation gives every station one length when R = 1 or n = 1.
  for (const Shape& s : {Shape{"sync", 5, 3}, Shape{"max", 5, 3},
                         Shape{"perstation", 5, 1},
                         Shape{"perstation", 1, 3}}) {
    auto dense = engine_from(with(s.policy, s.n, s.r));
    auto twin = engine_from(with(s.policy, s.n, s.r));
    expect_same_run(*dense, *twin, sim::until(200 * kTicksPerUnit), slots,
                    std::string(s.policy) + " n=" + std::to_string(s.n) +
                        " R=" + std::to_string(s.r));
  }

  std::vector<std::pair<std::string, sim::EngineMaterials>> refused;
  refused.emplace_back("ao-arrow", with("sync", 5, 3, "ao-arrow"));
  refused.emplace_back("random", with("random", 5, 3));
  refused.emplace_back("cyclic", with("cyclic", 5, 3));
  refused.emplace_back("perstation R=3", with("perstation", 5, 3));
  sim::EngineMaterials mixed = with("sync", 5, 3);
  mixed.protocols[2] = analysis::make_protocol("rrw");
  refused.emplace_back("mixed protocols", std::move(mixed));
  for (auto& [what, m] : refused) {
    auto engine = engine_from(std::move(m));
    EXPECT_FALSE(engine->dense()) << what;
    const std::uint64_t before = slots.count();
    engine->run(sim::until(200 * kTicksPerUnit));
    EXPECT_GT(engine->stats().total_slots, 0u) << what;
    EXPECT_EQ(slots.count(), before) << what;
  }
}

// Checkpointing keeps a run off the dense path (the sink observes the
// engine mid-run): dense() is false, the sink fires, no dense slot runs,
// and the run's statistics are the dense run's.
TEST(Cohort, RefusesCheckpointConfig) {
  const DenseSlots slots;
  int saves = 0;
  sim::EngineMaterials m = dense_materials(17);
  m.cfg.checkpoint_interval = 64;
  m.cfg.checkpoint_sink = [&saves](const sim::Engine&) { ++saves; };
  auto checkpointed = engine_from(std::move(m));
  EXPECT_FALSE(checkpointed->dense());
  const std::uint64_t before = slots.count();
  checkpointed->run(sim::until(300 * kTicksPerUnit));
  EXPECT_GT(saves, 0);
  EXPECT_EQ(slots.count(), before);

  auto dense = engine_from(dense_materials(17));
  auto twin = engine_from(dense_materials(17));
  expect_same_run(*dense, *twin, sim::until(300 * kTicksPerUnit), slots,
                  "without checkpointing");
  EXPECT_EQ(dense->stats(), checkpointed->stats());
}

// A stop with a predicate, and a traced run, take the general loop: a
// predicate must see every event, and a trace records each. Neither adds
// a dense slot, and each ends where the dense loop would have.
TEST(Cohort, RefusesPredicateStop) {
  const DenseSlots slots;
  auto with_predicate = engine_from(dense_materials(5));
  ASSERT_TRUE(with_predicate->dense());
  sim::StopCondition stop = sim::until(900 * kTicksPerUnit);
  stop.predicate = [](const sim::Engine& e) {
    return e.stats().delivered_packets >= 10;
  };
  std::uint64_t before = slots.count();
  with_predicate->run(stop);
  EXPECT_EQ(with_predicate->stats().delivered_packets, 10u);
  EXPECT_EQ(slots.count(), before);
  // The dense loop, stopped at the same slot count, ends in the same
  // state.
  auto dense = engine_from(dense_materials(5));
  sim::StopCondition same;
  same.max_total_slots = with_predicate->stats().total_slots;
  dense->run(same);
  EXPECT_EQ(slots.count() - before, same.max_total_slots);
  EXPECT_EQ(bytes(*dense), bytes(*with_predicate));

  sim::EngineMaterials m = dense_materials(5);
  m.cfg.record_trace = true;
  auto traced = engine_from(std::move(m));
  EXPECT_TRUE(traced->dense());
  before = slots.count();
  traced->run(sim::until(900 * kTicksPerUnit));
  EXPECT_EQ(slots.count(), before);
  EXPECT_FALSE(traced->trace().slots().empty());
  dense->run(sim::until(900 * kTicksPerUnit));
  EXPECT_EQ(traced->stats(), dense->stats());
  EXPECT_EQ(traced->channel_stats(), dense->channel_stats());
}

}  // namespace
}  // namespace asyncmac
