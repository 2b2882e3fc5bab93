// Byte-identity of the batched SoA cohort engine against the scalar
// engine — THE contract of sim/cohort_engine.h: a lane's
// save_lane_state() must equal the save_state() of a scalar Engine built
// from the same materials and driven through the same stop conditions,
// whether the lane runs to the end or retires mid-run while the rest of
// the cohort moves on. The comparisons are full state snapshots —
// queues, RNG streams, protocol state, ledger, metrics, trace,
// deliveries and engine cursors — so any divergence anywhere fails
// loudly. A cohort runs lockstep lanes only, once: the refusal tests pin
// what it turns away.
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
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

/// `count` lanes built by `make(k)`.
std::vector<sim::LaneMaterials> lanes_of(
    std::size_t count,
    const std::function<sim::LaneMaterials(std::size_t)>& make) {
  std::vector<sim::LaneMaterials> lanes;
  for (std::size_t k = 0; k < count; ++k) lanes.push_back(make(k));
  return lanes;
}

/// Fixed-length slot policies with the lane-ized protocol take the
/// lockstep path; the cohort refuses everything else.
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

/// The corpus case itself when it can run in lockstep, else the same
/// topology, injector and seed under ca-arrow with a fixed-length policy
/// (its own when fixed, else perstation).
EngineGoldenCase lockstep_variant(EngineGoldenCase c) {
  if (expect_lockstep(c)) return c;
  c.protocol = "ca-arrow";
  if (c.slot_policy != "sync" && c.slot_policy != "max")
    c.slot_policy = "perstation";
  return c;
}

// Every golden corpus case: the cohort test agrees with the lockstep
// rule above and the constructor refuses the rest; then every case's
// lockstep variant, with per-lane seeds, runs as a cohort whose lane
// snapshots must equal scalar engines run to the same horizon.
TEST(CohortGolden, ByteIdentityAcrossCorpus) {
  const std::size_t kLanes = 3;
  for (const EngineGoldenCase& corpus : testing::engine_golden_cases()) {
    auto lanes = [&](const EngineGoldenCase& c) {
      return lanes_of(kLanes, [&](std::size_t k) {
        return golden_materials(c, c.seed + 37 * k);
      });
    };
    EXPECT_EQ(sim::lockstep_eligible(lanes(corpus)), expect_lockstep(corpus))
        << corpus.name;
    if (!expect_lockstep(corpus)) {
      EXPECT_THROW(sim::CohortEngine{lanes(corpus)}, std::invalid_argument)
          << corpus.name;
    }

    const EngineGoldenCase c = lockstep_variant(corpus);
    sim::CohortEngine cohort(lanes(c));
    const sim::StopCondition stop = sim::until(c.horizon_units * kTicksPerUnit);
    cohort.run(stop);

    for (std::size_t k = 0; k < kLanes; ++k) {
      auto ref = engine_from(golden_materials(c, c.seed + 37 * k));
      ref->run(stop);
      EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref))
          << corpus.name << " lane " << k;
      EXPECT_EQ(cohort.stats(k).total_slots, ref->stats().total_slots);
      EXPECT_EQ(cohort.channel_stats(k).transmissions,
                ref->channel_stats().transmissions);
    }
  }
}

// The lockstep-eligible corpus case, rendered through a scalar engine
// loaded from lane 0's snapshot, must reproduce the committed golden
// artifact exactly (lane 0 carries the case's own seed).
TEST(CohortGolden, LockstepLaneReproducesGoldenArtifact) {
  for (const EngineGoldenCase& c : testing::engine_golden_cases()) {
    if (!expect_lockstep(c)) continue;
    sim::CohortEngine cohort(lanes_of(4, [&](std::size_t k) {
      return golden_materials(c, c.seed + 37 * k);
    }));
    cohort.run(sim::until(c.horizon_units * kTicksPerUnit));

    auto lane0 = engine_from(golden_materials(c, c.seed));
    const std::vector<std::uint8_t> bytes = lane_bytes(cohort, 0);
    snapshot::Reader r(bytes);
    lane0->load_state(r);
    std::string artifact =
        trace::serialize_trace({c.n, c.bound_r}, lane0->trace().slots());
    artifact += metrics::to_json(lane0->stats(), &lane0->channel_stats());
    artifact += "\n";
    EXPECT_EQ(artifact, testing::run_engine_golden_case(c)) << c.name;
  }
}

// Generated ca-arrow scenarios the lockstep path takes (whatever
// fixed-length policy, injector, channel variant and energy model the
// generator draws), traced as generated and untraced (the untraced run
// takes the dense idle and quiet-run paths): cohort lanes match scalar
// runs byte for byte.
TEST(CohortScenario, GeneratedScenariosByteIdentity) {
  verify::ScenarioGen gen(0xC0480u, {"ca-arrow"});
  int drawn = 0;
  for (std::uint64_t index = 0; drawn < 4; ++index) {
    ASSERT_LT(index, 200u) << "too few lockstep-eligible draws";
    verify::Scenario s = gen.generate(index);
    if (sim::lockstep_slot_lengths(analysis::materials(s)).empty()) continue;
    ++drawn;
    for (const bool traced : {true, false}) {
      s.record_trace = traced;
      const std::size_t kLanes = 3;
      // Lane 0 = the scenario.
      sim::CohortEngine cohort(lanes_of(kLanes, [&](std::size_t k) {
        return analysis::materials(s, s.seed + k);
      }));
      const sim::StopCondition stop =
          sim::until(s.horizon_units * kTicksPerUnit);
      cohort.run(stop);
      for (std::size_t k = 0; k < kLanes; ++k) {
        auto ref = engine_from(analysis::materials(s, s.seed + k));
        ref->run(stop);
        EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref))
            << s.describe() << " traced=" << traced << " lane " << k;
      }
    }
  }
}

// Lanes that share protocol / policy / n / R / seed but differ in
// injector *parameters and kinds* — the grid-row batching shape
// (analysis::run_grid groups a rho x seed block into one cohort). Every
// lane must still match its own scalar twin byte for byte, including a
// no-injector lane riding along with adversarial ones.
TEST(Cohort, ParamVaryingLanesByteIdentity) {
  std::vector<adversary::InjectorSpec> specs(4);
  specs[0].rho = util::Ratio(1, 2);  // the eligible_materials default shape
  specs[1].rho = util::Ratio(1, 4);  // halved rate
  specs[1].burst_ticks = 16 * kTicksPerUnit;  // doubled burst
  specs[2].pattern = "single";  // different cost-bucket targeting
  specs[2].single_target = 2;
  specs[3].kind = "drain-chasing";  // different injector kind entirely
  specs[3].drain_a = 1;
  specs[3].drain_b = 3;
  // Lane 4 runs with no injector at all.
  auto lane = [&](std::size_t k) {
    sim::LaneMaterials m = eligible_materials(55);
    m.injection =
        k < specs.size() ? adversary::make_injector(specs[k]) : nullptr;
    return m;
  };

  sim::CohortEngine cohort(lanes_of(5, lane));
  const sim::StopCondition stop = sim::until(300 * kTicksPerUnit);
  cohort.run(stop);
  for (std::size_t k = 0; k < 5; ++k) {
    auto ref = engine_from(lane(k));
    ref->run(stop);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// Kill-anywhere: a lane's snapshot must equal the scalar engine's at any
// stop, not just at round horizons — retirement flushes the SoA ledger
// and metrics blocks mid-cadence. One cohort per cut, against scalar
// engines advanced from cut to cut; swept across prune cadences (every
// event, the shared default-ish 16, and one so sparse it never fires) so
// cuts land before, between and on prune boundaries. Before its run a
// cohort's lanes must equal freshly constructed scalar engines.
TEST(Cohort, KillAnywhereByteIdentityAcrossPruneCadences) {
  for (const std::uint64_t prune : {std::uint64_t{1}, std::uint64_t{16},
                                    std::uint64_t{4096}}) {
    const std::size_t kLanes = 3;
    auto lane = [prune](std::size_t k) {
      sim::LaneMaterials m = eligible_materials(600 + 7 * k);
      m.cfg.prune_interval = prune;
      return m;
    };
    std::vector<std::unique_ptr<sim::Engine>> refs;
    for (std::size_t k = 0; k < kLanes; ++k)
      refs.push_back(engine_from(lane(k)));
    // Cuts chosen to straddle prune boundaries for every cadence above.
    for (const Tick cut_units : {3, 17, 40, 111, 256}) {
      sim::CohortEngine cohort(lanes_of(kLanes, lane));
      if (cut_units == 3) {
        for (std::size_t k = 0; k < kLanes; ++k)
          EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*refs[k]))
              << "prune=" << prune << " before the run, lane " << k;
      }
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
  sim::CohortEngine cohort(
      lanes_of(1, [](std::size_t) { return eligible_materials(99); }));
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
    std::vector<sim::StopCondition> stops;
    for (std::size_t k = 0; k < kLanes; ++k) {
      sim::StopCondition stop;
      if (k % 3 == 2)
        stop.max_total_slots = 150 + 40 * k;
      else
        stop.max_time = static_cast<Tick>(80 + 23 * k) * kTicksPerUnit;
      stops.push_back(stop);
    }
    sim::CohortEngine cohort(lanes_of(kLanes, [](std::size_t k) {
      return eligible_materials(1000 + k * 1000003);
    }));
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

// The shared prune cadence (and its telemetry flush) with ledger history
// archiving: a small prune_interval fires many prunes over a long run,
// and the frozen-at-different-prune-phases lanes must still serialize
// identically to scalar runs.
TEST(Cohort, PruneCadenceWithHistoryByteIdentity) {
  auto lane = [](std::size_t k) {
    sim::LaneMaterials m = eligible_materials(300 + k);
    m.cfg.prune_interval = 16;
    m.cfg.keep_channel_history = true;
    return m;
  };
  const std::size_t kLanes = 4;
  std::vector<sim::StopCondition> stops;
  for (std::size_t k = 0; k < kLanes; ++k)
    stops.push_back(sim::until(static_cast<Tick>(900 + 67 * k) *
                               kTicksPerUnit));
  sim::CohortEngine cohort(lanes_of(kLanes, lane));
  cohort.run(stops);
  for (std::size_t k = 0; k < kLanes; ++k) {
    auto ref = engine_from(lane(k));
    ref->run(stops[k]);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// Lanes the lockstep path cannot run are refused, by the cohort test and
// by the constructor alike: no lanes, mismatched n, a protocol that is
// not lane-ized, a variable-length slot policy, and lanes that disagree
// on the energy model.
TEST(Cohort, RefusesIneligibleLanes) {
  auto pair = [](const std::function<void(sim::LaneMaterials&)>& edit) {
    return lanes_of(2, [&](std::size_t k) {
      sim::LaneMaterials m = eligible_materials(3 + k);
      if (k == 1) edit(m);
      return m;
    });
  };
  EXPECT_TRUE(sim::lockstep_eligible(pair([](sim::LaneMaterials&) {})));

  std::vector<std::vector<sim::LaneMaterials>> refused;
  refused.emplace_back();
  refused.push_back(lanes_of(2, [](std::size_t k) {
    return eligible_materials(3, /*n=*/k == 0 ? 4 : 6);
  }));
  refused.push_back(pair([](sim::LaneMaterials& m) {
    m.protocols = analysis::make_protocols("ao-arrow", m.cfg.n);
  }));
  refused.push_back(pair([](sim::LaneMaterials& m) {
    m.slot_policy = adversary::make_slot_policy("random", m.cfg.n, 3, 1);
  }));
  refused.push_back(
      pair([](sim::LaneMaterials& m) { m.cfg.energy.enabled = true; }));
  for (std::size_t i = 0; i < refused.size(); ++i) {
    EXPECT_FALSE(sim::lockstep_eligible(refused[i])) << "case " << i;
    EXPECT_THROW(sim::CohortEngine{std::move(refused[i])},
                 std::invalid_argument)
        << "case " << i;
  }
}

// Checkpointing configurations are refused by design: the checkpoint
// sink observes a scalar Engine mid-run, which a lane does not have. One
// checkpointing lane is refused alone and beside an eligible lane; the
// same lane without checkpointing is accepted.
TEST(Cohort, RefusesCheckpointConfig) {
  auto lane = [](std::size_t k, std::uint64_t checkpoint_interval) {
    sim::LaneMaterials m = eligible_materials(17 + k);
    m.cfg.checkpoint_interval = checkpoint_interval;
    return m;
  };
  EXPECT_TRUE(sim::lockstep_eligible(
      lanes_of(1, [&](std::size_t k) { return lane(k, 0); })));

  std::vector<std::vector<sim::LaneMaterials>> refused;
  refused.push_back(lanes_of(1, [&](std::size_t k) { return lane(k, 64); }));
  refused.push_back(lanes_of(
      2, [&](std::size_t k) { return lane(k, k == 1 ? 64 : 0); }));
  for (std::size_t i = 0; i < refused.size(); ++i) {
    EXPECT_FALSE(sim::lockstep_eligible(refused[i])) << "case " << i;
    EXPECT_THROW(sim::CohortEngine{std::move(refused[i])},
                 std::invalid_argument)
        << "case " << i;
  }
}

// A StopCondition predicate observes a scalar Engine: the cohort refuses
// it before running anything, and stays runnable.
TEST(Cohort, RefusesPredicateStop) {
  auto lane = [](std::size_t k) { return eligible_materials(5 + k); };
  sim::CohortEngine cohort(lanes_of(2, lane));
  std::vector<sim::StopCondition> stops(2, sim::until(90 * kTicksPerUnit));
  std::vector<sim::StopCondition> with_predicate = stops;
  with_predicate[0].predicate = [](const sim::Engine& e) {
    return e.stats().delivered_packets >= 10;
  };
  EXPECT_THROW(cohort.run(with_predicate), std::invalid_argument);
  EXPECT_FALSE(cohort.retired(0));

  cohort.run(stops);
  for (std::size_t k = 0; k < 2; ++k) {
    auto ref = engine_from(lane(k));
    ref->run(stops[k]);
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

// A cohort runs once: its retired lanes cannot rejoin a schedule that
// moved on without them, so a second run() is refused and leaves every
// lane frozen where its stop fired.
TEST(Cohort, RefusesSecondRun) {
  const std::size_t kLanes = 4;
  auto lane = [](std::size_t k) { return eligible_materials(7 + k); };
  sim::CohortEngine cohort(lanes_of(kLanes, lane));
  cohort.run(sim::until(60 * kTicksPerUnit));
  EXPECT_THROW(cohort.run(sim::until(140 * kTicksPerUnit)),
               std::invalid_argument);
  for (std::size_t k = 0; k < kLanes; ++k) {
    EXPECT_TRUE(cohort.retired(k));
    auto ref = engine_from(lane(k));
    ref->run(sim::until(60 * kTicksPerUnit));
    EXPECT_EQ(lane_bytes(cohort, k), engine_bytes(*ref)) << "lane " << k;
  }
}

TEST(Cohort, RejectsEmptyAndLaneIndexOutOfRange) {
  EXPECT_THROW(sim::CohortEngine({}), std::invalid_argument);
  sim::CohortEngine cohort(
      lanes_of(1, [](std::size_t) { return eligible_materials(1); }));
  EXPECT_THROW(cohort.stats(1), std::invalid_argument);
  EXPECT_THROW(cohort.retired(9), std::invalid_argument);
  EXPECT_THROW(cohort.run(std::vector<sim::StopCondition>(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace asyncmac
