// Byte-identity of the batched SoA cohort engine against the scalar
// engine — THE contract of sim/cohort_engine.h: a lockstep lane's
// save_lane_state() must equal the save_state() of a scalar Engine built
// from the same materials and driven through the same stop conditions, on
// every path (lockstep, fallback, mid-run retirement, rerun after
// retirement, explicit detachment). The comparisons are full state
// snapshots — queues, RNG streams, protocol state, ledger, metrics,
// trace, deliveries and engine cursors — so any divergence anywhere
// fails loudly.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "engine_golden_cases.h"
#include "sim/cohort_engine.h"
#include "snapshot/io.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using testing::EngineGoldenCase;

std::vector<std::uint8_t> engine_bytes(const sim::Engine& e) {
  snapshot::Writer w;
  e.save_state(w);
  return w.take();
}

std::vector<std::uint8_t> lane_bytes(const sim::CohortEngine& c,
                                     std::size_t lane) {
  snapshot::Writer w;
  c.save_lane_state(lane, w);
  return w.take();
}

std::unique_ptr<sim::Engine> engine_from(sim::LaneMaterials m) {
  return std::make_unique<sim::Engine>(std::move(m.cfg), std::move(m.protocols),
                                       std::move(m.slot_policy),
                                       std::move(m.injection));
}

/// A golden case's engine materials, with the engine seed swappable (the
/// slot policy keeps the case seed, as lanes of one cohort must share the
/// schedule).
sim::LaneMaterials golden_materials(const EngineGoldenCase& c,
                                    std::uint64_t engine_seed) {
  sim::LaneMaterials m;
  m.cfg.n = c.n;
  m.cfg.bound_r = c.bound_r;
  m.cfg.seed = engine_seed;
  m.cfg.record_trace = true;
  m.cfg.record_deliveries = true;
  m.protocols = analysis::make_protocols(c.protocol, c.n);
  m.slot_policy =
      adversary::make_slot_policy(c.slot_policy, c.n, c.bound_r, c.seed);
  m.injection = c.no_injector ? nullptr : adversary::make_injector(c.injector);
  return m;
}

sim::LaneBuilder golden_builder(const EngineGoldenCase& c,
                                std::uint64_t engine_seed) {
  return [c, engine_seed] { return golden_materials(c, engine_seed); };
}

/// Fixed-length slot policies with the lane-ized protocol take the
/// lockstep fast path; everything else falls back to scalar engines.
bool expect_lockstep(const EngineGoldenCase& c) {
  return c.protocol == "ca-arrow" &&
         (c.slot_policy == "sync" || c.slot_policy == "max" ||
          c.slot_policy == "perstation");
}

/// An always-eligible configuration for the lockstep-specific tests.
sim::LaneMaterials eligible_materials(std::uint64_t seed,
                                      std::uint32_t n = 5,
                                      std::uint32_t r = 3) {
  sim::LaneMaterials m;
  m.cfg.n = n;
  m.cfg.bound_r = r;
  m.cfg.seed = seed;
  m.cfg.record_trace = true;
  m.cfg.record_deliveries = true;
  m.protocols = analysis::make_protocols("ca-arrow", n);
  m.slot_policy = adversary::make_slot_policy("perstation", n, r, 1);
  adversary::InjectorSpec inj;
  inj.kind = "saturating";
  inj.rho = util::Ratio(1, 2);
  inj.burst_ticks = 8 * kTicksPerUnit;
  inj.pattern = "roundrobin";
  inj.seed = seed + 1;
  m.injection = adversary::make_injector(inj);
  return m;
}

sim::LaneBuilder eligible_builder(std::uint64_t seed, std::uint32_t n = 5,
                                  std::uint32_t r = 3) {
  return [seed, n, r] { return eligible_materials(seed, n, r); };
}

// Every golden corpus case, lockstep or fallback, with per-lane seeds:
// lane snapshots must equal scalar engines run to the same horizon.
TEST(CohortGolden, ByteIdentityAcrossCorpus) {
  for (const EngineGoldenCase& c : testing::engine_golden_cases()) {
    const std::size_t kLanes = 3;
    std::vector<sim::LaneBuilder> builders;
    for (std::size_t k = 0; k < kLanes; ++k)
      builders.push_back(golden_builder(c, c.seed + 37 * k));
    sim::CohortEngine cohort(std::move(builders));
    EXPECT_EQ(cohort.lockstep(), expect_lockstep(c)) << c.name;

    const sim::StopCondition stop = sim::until(c.horizon_units * kTicksPerUnit);
    cohort.run(stop);

    for (std::size_t k = 0; k < kLanes; ++k) {
      auto ref = engine_from(golden_materials(c, c.seed + 37 * k));
      ref->run(stop);
      EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref))
          << c.name << " lane " << k;
      EXPECT_EQ(cohort.stats(k).total_slots, ref->stats().total_slots);
      EXPECT_EQ(cohort.channel_stats(k).transmissions,
                ref->channel_stats().transmissions);
    }
  }
}

// The lockstep-eligible corpus case, rendered through a detached lane,
// must reproduce the committed golden artifact exactly (lane 0 carries
// the case's own seed).
TEST(CohortGolden, LockstepLaneReproducesGoldenArtifact) {
  for (const EngineGoldenCase& c : testing::engine_golden_cases()) {
    if (!expect_lockstep(c)) continue;
    std::vector<sim::LaneBuilder> builders;
    for (std::size_t k = 0; k < 4; ++k)
      builders.push_back(golden_builder(c, c.seed + 37 * k));
    sim::CohortEngine cohort(std::move(builders));
    ASSERT_TRUE(cohort.lockstep());
    cohort.run(sim::until(c.horizon_units * kTicksPerUnit));

    sim::Engine& lane0 = cohort.engine(0);
    std::string artifact =
        trace::serialize_trace({c.n, c.bound_r}, lane0.trace().slots());
    artifact += metrics::to_json(lane0.stats(), &lane0.channel_stats());
    artifact += "\n";
    EXPECT_EQ(artifact, testing::run_engine_golden_case(c)) << c.name;
  }
}

// Generated scenarios through the scenario_materials seam: whatever the
// generator draws (any protocol, any policy, any injector), cohort lanes
// match scalar runs byte for byte.
TEST(CohortScenario, GeneratedScenariosByteIdentity) {
  verify::ScenarioGen gen(0xC0480u);
  for (std::uint64_t index : {0u, 1u, 2u}) {
    const verify::Scenario s = gen.generate(index);
    const std::size_t kLanes = 3;
    std::vector<sim::LaneBuilder> builders;
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::uint64_t lane_seed = s.seed + k;  // lane 0 = the scenario
      builders.push_back(
          [s, lane_seed] { return analysis::materials(s, lane_seed); });
    }
    sim::CohortEngine cohort(std::move(builders));
    const sim::StopCondition stop = sim::until(s.horizon_units * kTicksPerUnit);
    cohort.run(stop);
    for (std::size_t k = 0; k < kLanes; ++k) {
      auto ref = engine_from(analysis::materials(s, s.seed + k));
      ref->run(stop);
      EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref))
          << s.describe() << " lane " << k;
    }
  }
}

// Lanes that share protocol / policy / n / R / seed but differ in
// injector *parameters and kinds* — the grid-row batching shape
// (analysis::run_grid groups a rho x seed block into one cohort). Every
// lane must still match its own scalar twin byte for byte, including a
// no-injector lane riding along with adversarial ones.
TEST(Cohort, ParamVaryingLanesByteIdentity) {
  auto lane = [](adversary::InjectorSpec* inj) {
    const adversary::InjectorSpec spec = inj ? *inj : adversary::InjectorSpec{};
    const bool none = inj == nullptr;
    return [spec, none] {
      sim::LaneMaterials m = eligible_materials(55);
      m.injection = none ? nullptr : adversary::make_injector(spec);
      return m;
    };
  };
  std::vector<adversary::InjectorSpec> specs(4);
  specs[0].rho = util::Ratio(1, 2);  // the eligible_materials default shape
  specs[1].rho = util::Ratio(1, 4);  // halved rate
  specs[1].burst_ticks = 16 * kTicksPerUnit;  // doubled burst
  specs[2].pattern = "single";  // different cost-bucket targeting
  specs[2].single_target = 2;
  specs[3].kind = "drain-chasing";  // different injector kind entirely
  specs[3].drain_a = 1;
  specs[3].drain_b = 3;

  std::vector<sim::LaneBuilder> builders;
  for (auto& s : specs) builders.push_back(lane(&s));
  builders.push_back(lane(nullptr));  // and one lane with no injector
  sim::CohortEngine cohort(std::move(builders));
  ASSERT_TRUE(cohort.lockstep());
  const sim::StopCondition stop = sim::until(300 * kTicksPerUnit);
  cohort.run(stop);
  for (std::size_t k = 0; k < 5; ++k) {
    auto ref = engine_from(lane(k < specs.size() ? &specs[k] : nullptr)());
    ref->run(stop);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// Kill-anywhere: a lane's snapshot must equal the scalar engine's at
// *every* observation point, not just retirement — save_lane_state on a
// live lockstep lane flushes the SoA ledger and metrics blocks
// mid-cadence. Swept across prune cadences (every event, the shared
// default-ish 16, and one so sparse it never fires) so cuts land before,
// between and on prune boundaries.
TEST(Cohort, KillAnywhereByteIdentityAcrossPruneCadences) {
  for (const std::uint64_t prune : {std::uint64_t{1}, std::uint64_t{16},
                                    std::uint64_t{4096}}) {
    auto lane = [prune](std::uint64_t seed) {
      return [prune, seed] {
        sim::LaneMaterials m = eligible_materials(seed);
        m.cfg.prune_interval = prune;
        return m;
      };
    };
    const std::size_t kLanes = 3;
    std::vector<sim::LaneBuilder> builders;
    std::vector<std::unique_ptr<sim::Engine>> refs;
    for (std::size_t k = 0; k < kLanes; ++k) {
      builders.push_back(lane(600 + 7 * k));
      refs.push_back(engine_from(lane(600 + 7 * k)()));
    }
    sim::CohortEngine cohort(std::move(builders));
    ASSERT_TRUE(cohort.lockstep());
    // Cuts chosen to straddle prune boundaries for every cadence above.
    for (const Tick cut_units : {3, 17, 40, 111, 256}) {
      const sim::StopCondition stop = sim::until(cut_units * kTicksPerUnit);
      cohort.run(stop);
      for (std::size_t k = 0; k < kLanes; ++k) {
        refs[k]->run(stop);
        EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*refs[k]))
            << "prune=" << prune << " cut=" << cut_units << " lane " << k;
      }
    }
  }
}

// K = 1 is the degenerate cohort: still lockstep, still identical.
TEST(Cohort, SingleLaneDegenerate) {
  std::vector<sim::LaneBuilder> builders;
  builders.push_back(eligible_builder(99));
  sim::CohortEngine cohort(std::move(builders));
  ASSERT_TRUE(cohort.lockstep());
  ASSERT_EQ(cohort.lanes(), 1u);
  cohort.run(sim::until(200 * kTicksPerUnit));
  auto ref = engine_from(eligible_materials(99));
  ref->run(sim::until(200 * kTicksPerUnit));
  EXPECT_EQ(lane_bytes(cohort, 0), engine_bytes(*ref));
}

// Randomized K / seed sweep with staggered per-lane stops: lanes retire
// mid-run at different events (time stops and slot-count stops mixed)
// while the shared schedule advances for the rest.
TEST(Cohort, StaggeredStopsRetireLanesMidRun) {
  for (std::size_t kLanes : {2u, 5u, 8u}) {
    std::vector<sim::LaneBuilder> builders;
    std::vector<sim::StopCondition> stops;
    for (std::size_t k = 0; k < kLanes; ++k) {
      builders.push_back(eligible_builder(1000 + k * 1000003));
      sim::StopCondition stop;
      if (k % 3 == 2)
        stop.max_total_slots = 150 + 40 * k;
      else
        stop.max_time = static_cast<Tick>(80 + 23 * k) * kTicksPerUnit;
      stops.push_back(stop);
    }
    sim::CohortEngine cohort(std::move(builders));
    ASSERT_TRUE(cohort.lockstep());
    cohort.run(stops);
    for (std::size_t k = 0; k < kLanes; ++k) {
      EXPECT_TRUE(cohort.retired(k)) << "K=" << kLanes << " lane " << k;
      auto ref = engine_from(eligible_materials(1000 + k * 1000003));
      ref->run(stops[k]);
      EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref))
          << "K=" << kLanes << " lane " << k;
    }
  }
}

// Running again after retirement materializes the retired lanes and
// continues them bit-for-bit (two-segment scalar runs as reference).
TEST(Cohort, RerunAfterRetirementContinuesExactly) {
  const std::size_t kLanes = 4;
  std::vector<sim::LaneBuilder> builders;
  for (std::size_t k = 0; k < kLanes; ++k)
    builders.push_back(eligible_builder(7 + k));
  sim::CohortEngine cohort(std::move(builders));
  ASSERT_TRUE(cohort.lockstep());
  cohort.run(sim::until(60 * kTicksPerUnit));
  for (std::size_t k = 0; k < kLanes; ++k) EXPECT_TRUE(cohort.retired(k));
  cohort.run(sim::until(140 * kTicksPerUnit));
  for (std::size_t k = 0; k < kLanes; ++k) {
    EXPECT_FALSE(cohort.retired(k));  // now a live scalar engine
    auto ref = engine_from(eligible_materials(7 + k));
    ref->run(sim::until(60 * kTicksPerUnit));
    ref->run(sim::until(140 * kTicksPerUnit));
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// engine(k) detaches a lane to a scalar engine mid-flight; the cohort
// keeps advancing it (and the still-lockstep lanes) on later runs.
TEST(Cohort, ExplicitDetachThenContinue) {
  const std::size_t kLanes = 3;
  std::vector<sim::LaneBuilder> builders;
  for (std::size_t k = 0; k < kLanes; ++k)
    builders.push_back(eligible_builder(41 + 11 * k));
  sim::CohortEngine cohort(std::move(builders));
  cohort.run(sim::until(50 * kTicksPerUnit));

  sim::Engine& detached = cohort.engine(1);
  EXPECT_FALSE(cohort.retired(1));
  EXPECT_EQ(&detached, &cohort.engine(1));  // idempotent, cached

  cohort.run(sim::until(120 * kTicksPerUnit));
  for (std::size_t k = 0; k < kLanes; ++k) {
    auto ref = engine_from(eligible_materials(41 + 11 * k));
    ref->run(sim::until(50 * kTicksPerUnit));
    ref->run(sim::until(120 * kTicksPerUnit));
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// The shared prune cadence (and its telemetry flush) with ledger history
// archiving: a small prune_interval fires many prunes over a long run,
// and the frozen-at-different-prune-phases lanes must still serialize
// identically to scalar runs.
TEST(Cohort, PruneCadenceWithHistoryByteIdentity) {
  auto lane = [](std::uint64_t seed) {
    return [seed] {
      sim::LaneMaterials m = eligible_materials(seed);
      m.cfg.prune_interval = 16;
      m.cfg.keep_channel_history = true;
      return m;
    };
  };
  const std::size_t kLanes = 4;
  std::vector<sim::LaneBuilder> builders;
  std::vector<sim::StopCondition> stops;
  for (std::size_t k = 0; k < kLanes; ++k) {
    builders.push_back(lane(300 + k));
    stops.push_back(sim::until(static_cast<Tick>(900 + 67 * k) *
                               kTicksPerUnit));
  }
  sim::CohortEngine cohort(std::move(builders));
  ASSERT_TRUE(cohort.lockstep());
  cohort.run(stops);
  for (std::size_t k = 0; k < kLanes; ++k) {
    auto ref = engine_from(lane(300 + k)());
    ref->run(stops[k]);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// A StopCondition predicate observes a scalar Engine, so predicate lanes
// must detach before running — and still match a scalar run.
TEST(Cohort, PredicateStopDetachesLane) {
  std::vector<sim::LaneBuilder> builders;
  builders.push_back(eligible_builder(5));
  builders.push_back(eligible_builder(6));
  sim::CohortEngine cohort(std::move(builders));
  ASSERT_TRUE(cohort.lockstep());

  std::vector<sim::StopCondition> stops(2, sim::until(90 * kTicksPerUnit));
  stops[0].predicate = [](const sim::Engine& e) {
    return e.stats().delivered_packets >= 10;
  };
  cohort.run(stops);

  for (std::size_t k = 0; k < 2; ++k) {
    auto ref = engine_from(eligible_materials(5 + k));
    ref->run(stops[k]);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// Mismatched lane configurations (different n) cannot share a schedule:
// the cohort must fall back to scalar engines and still match.
TEST(Cohort, MismatchedLanesFallBackToScalar) {
  std::vector<sim::LaneBuilder> builders;
  builders.push_back(eligible_builder(3, /*n=*/4));
  builders.push_back(eligible_builder(3, /*n=*/6));
  sim::CohortEngine cohort(std::move(builders));
  EXPECT_FALSE(cohort.lockstep());
  cohort.run(sim::until(100 * kTicksPerUnit));
  auto ref0 = engine_from(eligible_materials(3, 4));
  auto ref1 = engine_from(eligible_materials(3, 6));
  ref0->run(sim::until(100 * kTicksPerUnit));
  ref1->run(sim::until(100 * kTicksPerUnit));
  EXPECT_EQ(lane_bytes(cohort, 0), engine_bytes(*ref0));
  EXPECT_EQ(lane_bytes(cohort, 1), engine_bytes(*ref1));
}

// Checkpointing configurations are ineligible by design (the sink
// callback observes a scalar Engine mid-run) — and the fallback still
// runs them to byte-identity with a scalar engine.
TEST(Cohort, CheckpointConfigFallsBack) {
  auto lane = [] {
    sim::LaneMaterials m = eligible_materials(17);
    m.cfg.checkpoint_interval = 64;
    return m;
  };
  std::vector<sim::LaneBuilder> builders;
  builders.push_back(lane);
  sim::CohortEngine cohort(std::move(builders));
  EXPECT_FALSE(cohort.lockstep());
  cohort.run(sim::until(100 * kTicksPerUnit));
  auto ref = engine_from(lane());
  ref->run(sim::until(100 * kTicksPerUnit));
  EXPECT_EQ(lane_bytes(cohort, 0), engine_bytes(*ref));
}

TEST(Cohort, RejectsEmptyAndLaneIndexOutOfRange) {
  EXPECT_THROW(sim::CohortEngine({}), std::invalid_argument);
  std::vector<sim::LaneBuilder> builders;
  builders.push_back(eligible_builder(1));
  sim::CohortEngine cohort(std::move(builders));
  EXPECT_THROW(cohort.stats(1), std::invalid_argument);
  EXPECT_THROW(cohort.retired(9), std::invalid_argument);
  EXPECT_THROW(cohort.run(std::vector<sim::StopCondition>(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace asyncmac
