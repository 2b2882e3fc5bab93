// The engine's dense path against its general path — the contract of
// sim/engine.h: a dense() run that run() takes through the dense loop
// (the CA-ARRoW automata, or each station's own automaton) must leave exactly
// the state the same run leaves when it is taken event by event. A
// never-true stop predicate forces the general loop, so every test below
// runs a dense engine and a twin built from the same materials and
// compares full save_state snapshots — queues, RNG
// streams, protocol state, committed slots, ledger, metrics, energy
// meter, delivery log and engine cursors. Every test also checks that
// the dense loop really ran (dense() and engine.dense_slots), so a change
// that quietly switches it off fails here.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"
#include "engine_golden_cases.h"
#include "snapshot/checkpoint.h"
#include "snapshot/format.h"
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
/// Every event of the dense engine's run must have been a dense one (by
/// engine.dense_slots and by Engine::dense_slots), and the two must end
/// in the same state.
void expect_same_run(sim::Engine& dense, sim::Engine& twin,
                     const sim::StopCondition& stop, const DenseSlots& slots,
                     const std::string& what) {
  ASSERT_TRUE(dense.dense()) << what;
  const std::uint64_t dense_before = slots.count();
  const std::uint64_t engine_before = dense.dense_slots();
  const std::uint64_t events_before = dense.stats().total_slots;
  dense.run(stop);
  twin.run(general(stop));
  const std::uint64_t events = dense.stats().total_slots - events_before;
  EXPECT_EQ(slots.count() - dense_before, events) << what;
  EXPECT_EQ(dense.dense_slots() - engine_before, events) << what;
  EXPECT_EQ(twin.dense_slots(), 0u) << what;
  EXPECT_EQ(bytes(dense), bytes(twin)) << what;
}

/// A hand-built per-station schedule with non-unit lengths: station i
/// fixed at 1, 3/2 and 5/2 units in turn (R >= 3; hyperperiod 15 units).
constexpr const char* kHalves = "1,3/2,5/2";

/// The slot policy named `policy`: a make_slot_policy family or kHalves.
std::unique_ptr<sim::SlotPolicy> schedule(const std::string& policy,
                                          std::uint32_t n, std::uint32_t r) {
  if (policy != kHalves) return adversary::make_slot_policy(policy, n, r, 1);
  const Tick halves[] = {kTicksPerUnit, 3 * kTicksPerUnit / 2,
                         5 * kTicksPerUnit / 2};
  std::vector<Tick> lengths(n);
  for (std::uint32_t i = 0; i < n; ++i) lengths[i] = halves[i % 3];
  return std::make_unique<adversary::PerStationSlotPolicy>(std::move(lengths));
}

/// The schedules of the CA-ARRoW tests below: uniform (sync: 1-unit
/// slots, max: R units) and per-station (perstation: 1, 2, 3, 1, 2
/// units at R = 3, and kHalves), each dense.
const std::vector<std::string>& all_schedules() {
  static const std::vector<std::string> kSchedules = {"sync", "max",
                                                      "perstation", kHalves};
  return kSchedules;
}

/// A dense run: ca-arrow under `policy` (see schedule()), saturating
/// round-robin traffic at rho 1/2.
sim::EngineMaterials dense_materials(std::uint64_t seed,
                                     const std::string& policy = "max",
                                     std::uint32_t n = 5, std::uint32_t r = 3) {
  sim::EngineMaterials m;
  m.cfg.n = n;
  m.cfg.bound_r = r;
  m.cfg.seed = seed;
  m.cfg.record_deliveries = true;
  m.protocols = analysis::make_protocols("ca-arrow", n);
  m.slot_policy = schedule(policy, n, r);
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

// Every golden corpus case's dense CA-ARRoW variants: ca-arrow under
// sync, max and perstation, with the case's n, R, injector (the adaptive
// maxqueue and drain-chasing ones included) and seed.
TEST(DenseGolden, ByteIdentityAcrossCorpus) {
  const DenseSlots slots;
  for (EngineGoldenCase c : testing::engine_golden_cases()) {
    c.protocol = "ca-arrow";
    for (const char* policy : {"sync", "max", "perstation"}) {
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
TEST(DenseScenario, GeneratedScenariosByteIdentity) {
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
TEST(Dense, ParamVaryingRunsByteIdentity) {
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
// boundaries, and across the schedules (per-station cuts land
// mid-hyperperiod). Before any run the two engines hold the same bytes.
TEST(Dense, KillAnywhereByteIdentityAcrossPruneCadences) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
    for (const std::uint64_t prune : {std::uint64_t{1}, std::uint64_t{16},
                                      std::uint64_t{4096}}) {
      auto materials = [prune, &policy] {
        sim::EngineMaterials m = dense_materials(600, policy);
        m.cfg.prune_interval = prune;
        return m;
      };
      const std::string what = policy + " prune=" + std::to_string(prune);
      auto dense = engine_from(materials());
      auto twin = engine_from(materials());
      EXPECT_EQ(bytes(*dense), bytes(*twin)) << what;
      for (const Tick cut_units : {3, 17, 40, 111, 256}) {
        expect_same_run(*dense, *twin, sim::until(cut_units * kTicksPerUnit),
                        slots, what + " cut=" + std::to_string(cut_units));
        const std::vector<std::uint8_t> saved = bytes(*dense);
        auto resumed = engine_from(materials());
        snapshot::Reader r(saved);
        resumed->load_state(r);
        dense = std::move(resumed);
      }
    }
  }
}

// Stops that land mid-round, mid-hyperperiod and mid-batch: slot-count
// stops of every size modulo n, and time stops between round ends (on
// the kHalves schedule, on event times), interleaved on one dense engine
// and its twin, compared at every stop.
TEST(Dense, StaggeredStopsEndRunsMidRound) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
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
                      policy + " stop " + std::to_string(k));
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// The prune cadence with channel history archiving: a small prune
// interval fires many prunes, and runs stopped at different prune phases
// must serialize as their twins do.
TEST(Dense, PruneCadenceWithHistoryByteIdentity) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
    auto materials = [&policy] {
      sim::EngineMaterials m = dense_materials(300, policy);
      m.cfg.prune_interval = 16;
      m.cfg.keep_channel_history = true;
      return m;
    };
    for (const Tick horizon : {900, 967, 1034, 1101}) {
      auto dense = engine_from(materials());
      auto twin = engine_from(materials());
      expect_same_run(*dense, *twin, sim::until(horizon * kTicksPerUnit),
                      slots, policy + " horizon " + std::to_string(horizon));
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// The energy meter under the dense loop and its batcher, on every
// schedule: meters and snapshots equal the twin's.
TEST(Dense, MeteredRunByteIdentity) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
    auto materials = [&policy] {
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
// then confirms that the ack is the station's own), on every schedule.
TEST(Dense, RestrainedChannelByteIdentity) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
    for (const bool jam : {true, false}) {
      auto materials = [jam, &policy] {
        sim::EngineMaterials m = dense_materials(73, policy);
        m.cfg.restrained = channel::RestrainedSpec{1, jam};
        return m;
      };
      auto dense = engine_from(materials());
      auto twin = engine_from(materials());
      expect_same_run(*dense, *twin, sim::until(400 * kTicksPerUnit), slots,
                      policy + (jam ? " jam" : " reject"));
      EXPECT_GT(dense->stats().delivered_packets, 0u) << policy;
    }
  }
}

// step() and run() interleave: a dense run continues from where step()
// left the schedule (mid-round, mid-hyperperiod), and step() from where a
// dense run wrote its state back.
TEST(Dense, RunAfterStepAndStepAfterRun) {
  const DenseSlots slots;
  for (const std::string& policy : all_schedules()) {
    auto dense = engine_from(dense_materials(7, policy));
    auto twin = engine_from(dense_materials(7, policy));
    for (int round = 1; round <= 6; ++round) {
      expect_same_run(
          *dense, *twin,
          sim::until(static_cast<Tick>(37 * round) * kTicksPerUnit), slots,
          policy + " run " + std::to_string(round));
      for (int k = 0; k < round; ++k) {
        ASSERT_TRUE(dense->step());
        ASSERT_TRUE(twin->step());
        EXPECT_EQ(bytes(*dense), bytes(*twin))
            << policy << " step " << k << " after run " << round;
      }
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// The dense path is the constructor's choice: a fixed slot length of its
// own for every station, one hyperperiod's events within the cap,
// whatever the protocols. Every queue-driven protocol and a mixed
// protocol set go dense under sync, max and perstation at R = 1 and at
// n = 1, all but tree-resolution (which needs synchronous slots) under
// perstation at R = 2 to 4, and match their general-loop twins. Variable
// lengths, a hyperperiod past the cap (perstation at R = 11 once the
// 11-unit station joins; hand-built lengths whose lcm has too many
// events or leaves Tick's range) run on the general loop: dense() is
// false and run() adds no dense slot.
TEST(Dense, EligibilityFollowsTheSchedule) {
  const DenseSlots slots;
  auto with = [](const std::string& protocol, const std::string& policy,
                 std::uint32_t n, std::uint32_t r) {
    sim::EngineMaterials m = dense_materials(3, policy, n, r);
    if (protocol == "mixed") {
      // The pool's protocols from ca-arrow on, one per station.
      const std::vector<std::string>& pool = verify::default_protocol_pool();
      for (std::uint32_t i = 0; i < n; ++i)
        m.protocols[i] = analysis::make_protocol(pool[(i + 1) % pool.size()]);
    } else {
      m.protocols = analysis::make_protocols(protocol, n);
    }
    return m;
  };
  std::vector<std::string> protocols = verify::default_protocol_pool();
  protocols.emplace_back("mixed");
  struct Shape {
    const char* policy;
    std::uint32_t n, r;
  };
  for (const std::string& protocol : protocols) {
    for (const Shape& s :
         {Shape{"sync", 5, 3}, Shape{"max", 5, 3}, Shape{"perstation", 5, 1},
          Shape{"perstation", 1, 3}, Shape{"perstation", 5, 2},
          Shape{"perstation", 5, 3}, Shape{"perstation", 5, 4}}) {
      if (protocol == "tree-resolution" && s.n > 1 && s.r > 1 &&
          std::string(s.policy) == "perstation")
        continue;
      auto dense = engine_from(with(protocol, s.policy, s.n, s.r));
      auto twin = engine_from(with(protocol, s.policy, s.n, s.r));
      expect_same_run(*dense, *twin, sim::until(200 * kTicksPerUnit), slots,
                      protocol + " " + s.policy + " n=" + std::to_string(s.n) +
                          " R=" + std::to_string(s.r));
    }
  }
  // The cap's reach: perstation at R = 10 and n = 64 (49,536 events, a
  // 2,520-unit hyperperiod), run past the table's wrap.
  {
    auto dense = engine_from(with("aloha", "perstation", 64, 10));
    auto twin = engine_from(with("aloha", "perstation", 64, 10));
    expect_same_run(*dense, *twin, sim::until(2900 * kTicksPerUnit), slots,
                    "aloha perstation n=64 R=10");
  }

  /// `lengths[i % size]` ticks for station i of 5, at R = 3.
  auto hand_built = [&with](const std::string& protocol,
                            const std::vector<Tick>& lengths) {
    sim::EngineMaterials m = with(protocol, "sync", 5, 3);
    std::vector<Tick> per_station(5);
    for (std::size_t i = 0; i < per_station.size(); ++i)
      per_station[i] = lengths[i % lengths.size()];
    m.slot_policy =
        std::make_unique<adversary::PerStationSlotPolicy>(per_station);
    return m;
  };
  constexpr Tick u = kTicksPerUnit;
  for (const std::string protocol : {"ca-arrow", "aloha", "mixed"}) {
    std::vector<std::pair<std::string, sim::EngineMaterials>> refused;
    for (const char* policy : {"random", "cyclic", "stretch-tx"})
      refused.emplace_back(policy, with(protocol, policy, 5, 3));
    refused.emplace_back("perstation R=11 n=11",
                         with(protocol, "perstation", 11, 11));
    // 1 + 1/720720 units: lcm u(u + 1), 1,441,441 events per station pair.
    refused.emplace_back("lengths past the cap",
                         hand_built(protocol, {u, u + 1}));
    // Five pairwise near-coprime lengths: their lcm leaves Tick's range.
    refused.emplace_back(
        "lcm past Tick's range",
        hand_built(protocol, {u, u + 1, u + 2, u + 3, u + 5}));
    for (auto& [what, m] : refused) {
      auto engine = engine_from(std::move(m));
      EXPECT_FALSE(engine->dense()) << protocol << " " << what;
      const std::uint64_t before = slots.count();
      engine->run(sim::until(200 * kTicksPerUnit));
      EXPECT_GT(engine->stats().total_slots, 0u) << protocol << " " << what;
      EXPECT_EQ(slots.count(), before) << protocol << " " << what;
      EXPECT_EQ(engine->dense_slots(), 0u) << protocol << " " << what;
    }
  }
}

/// A dense run of `protocol` under `policy` with an injector of `kind`
/// (saturating, bursty, maxqueue, drain-chasing) at rho 3/5.
sim::EngineMaterials protocol_materials(const std::string& protocol,
                                        const std::string& kind,
                                        const std::string& policy,
                                        std::uint32_t r,
                                        std::uint64_t seed = 11) {
  constexpr std::uint32_t n = 5;
  sim::EngineMaterials m = dense_materials(seed, policy, n, r);
  m.protocols = analysis::make_protocols(protocol, n);
  adversary::InjectorSpec inj;
  inj.kind = kind;
  inj.rho = util::Ratio(3, 5);
  inj.burst_ticks = 6 * kTicksPerUnit;
  inj.period_ticks = 40 * kTicksPerUnit;
  inj.drain_a = 2;
  inj.drain_b = 4;
  inj.seed = seed + 1;
  m.injection = adversary::make_injector(inj);
  return m;
}

// Every queue-driven protocol steps through its own automaton on the
// dense loop: under each injector kind (the adaptive maxqueue and
// drain-chasing ones included), under sync and under max at R = 3, a
// dense run stopped mid-round (slot counts that are not multiples of n)
// and at its horizon holds its general twin's snapshot bytes. Seed-drawing
// protocols are killed and resumed on the way, and one non-CA protocol
// runs metered and on a restrained channel in both modes.
TEST(Dense, EveryProtocolMatchesTheGeneralLoop) {
  const DenseSlots slots;
  const Tick horizon = 700 * kTicksPerUnit;
  for (const std::string& protocol : verify::default_protocol_pool()) {
    std::uint64_t delivered = 0;
    for (const char* kind : {"saturating", "bursty", "maxqueue",
                             "drain-chasing"}) {
      for (const char* policy : {"sync", "max"}) {
        const std::string what = protocol + " " + kind + " " + policy;
        auto dense = engine_from(protocol_materials(protocol, kind, policy, 3));
        auto twin = engine_from(protocol_materials(protocol, kind, policy, 3));
        for (const std::uint64_t count : {std::uint64_t{7}, std::uint64_t{123},
                                          std::uint64_t{1001}}) {
          sim::StopCondition stop;
          stop.max_total_slots = count;
          expect_same_run(*dense, *twin, stop, slots,
                          what + " slot " + std::to_string(count));
        }
        expect_same_run(*dense, *twin, sim::until(horizon), slots, what);
        delivered += dense->stats().delivered_packets;
      }
    }
    EXPECT_GT(delivered, 0u) << protocol;
  }

  // Kill and resume: a dense aloha or beb run saved mid-round and loaded
  // into a fresh engine runs on exactly as the uninterrupted general run.
  for (const std::string protocol : {"aloha", "beb"}) {
    auto materials = [&protocol] {
      return protocol_materials(protocol, "saturating", "sync", 3, 29);
    };
    auto dense = engine_from(materials());
    auto twin = engine_from(materials());
    for (const std::uint64_t count : {std::uint64_t{38}, std::uint64_t{401},
                                      std::uint64_t{2222}}) {
      sim::StopCondition stop;
      stop.max_total_slots = count;
      expect_same_run(*dense, *twin, stop, slots,
                      protocol + " cut " + std::to_string(count));
      const std::vector<std::uint8_t> saved = bytes(*dense);
      auto resumed = engine_from(materials());
      snapshot::Reader r(saved);
      resumed->load_state(r);
      dense = std::move(resumed);
    }
    expect_same_run(*dense, *twin, sim::until(horizon), slots,
                    protocol + " resumed to the horizon");
  }

  // A metered run and a restrained channel (jam, then reject) of beb.
  auto metered = [] {
    sim::EngineMaterials m = protocol_materials("beb", "bursty", "max", 2);
    m.cfg.energy.enabled = true;
    m.cfg.energy.cost_transmit = 4;
    m.cfg.energy.cost_listen = 2;
    m.cfg.energy.cost_sleep = 1;
    return m;
  };
  auto dense = engine_from(metered());
  auto twin = engine_from(metered());
  expect_same_run(*dense, *twin, sim::until(horizon), slots, "metered beb");
  EXPECT_EQ(dense->energy_meter(), twin->energy_meter());
  EXPECT_GT(dense->energy_meter().total_charge(dense->energy_model()), 0u);
  for (const bool jam : {true, false}) {
    auto restrained = [jam] {
      sim::EngineMaterials m =
          protocol_materials("beb", "saturating", "sync", 3);
      m.cfg.restrained = channel::RestrainedSpec{1, jam};
      return m;
    };
    auto dense_r = engine_from(restrained());
    auto twin_r = engine_from(restrained());
    expect_same_run(*dense_r, *twin_r, sim::until(horizon), slots,
                    jam ? "beb jam" : "beb reject");
    EXPECT_GT(dense_r->stats().delivered_packets, 0u);
    EXPECT_GT(dense_r->channel_stats().jammed + dense_r->channel_stats().rejected,
              0u);
  }
}

/// The pool's protocols the scenario generator runs at R > 1: all but
/// tree-resolution, which it pins to R = 1.
std::vector<std::string> async_pool() {
  std::vector<std::string> pool = verify::default_protocol_pool();
  std::erase(pool, "tree-resolution");
  return pool;
}

/// The per-station schedules at n = 5 (hyperperiod tables of 8, 20, 37
/// and 56 events).
struct PerStation {
  const char* policy;
  std::uint32_t r;
};
constexpr PerStation kPerStation[] = {
    {"perstation", 2}, {"perstation", 3}, {"perstation", 4}, {kHalves, 3}};

constexpr const char* kInjectorKinds[] = {"saturating", "bursty", "maxqueue",
                                          "drain-chasing"};

/// Interleave, on a dense engine and its general twin: slot-count stops
/// that end mid-hyperperiod, time stops half a unit past a unit (on the
/// kHalves schedule, on event times), step() calls between runs and one
/// kill-and-resume of the dense engine from its snapshot; then run both
/// to `horizon`. Compared after every call. Returns the packets the run
/// delivered.
std::uint64_t interleave(
    const std::function<sim::EngineMaterials()>& materials, Tick horizon,
    const DenseSlots& slots, const std::string& what) {
  auto dense = engine_from(materials());
  auto twin = engine_from(materials());
  Tick next_time = 0;
  for (std::uint64_t k = 1; k <= 9; ++k) {
    const std::string at = what + " stop " + std::to_string(k);
    sim::StopCondition stop;
    if (k % 3 == 0) {
      next_time = std::max(next_time, dense->now()) +
                  static_cast<Tick>(7 * k + 1) * kTicksPerUnit +
                  kTicksPerUnit / 2;
      stop.max_time = next_time;
    } else {
      stop.max_total_slots = dense->stats().total_slots + (k * 29) % 53 + 1;
    }
    expect_same_run(*dense, *twin, stop, slots, at);
    for (std::uint64_t j = 0; j < k % 4; ++j) {
      EXPECT_TRUE(dense->step()) << at;
      EXPECT_TRUE(twin->step()) << at;
    }
    EXPECT_EQ(bytes(*dense), bytes(*twin)) << at << " after steps";
    if (k == 5) {
      const std::vector<std::uint8_t> saved = bytes(*dense);
      auto resumed = engine_from(materials());
      snapshot::Reader r(saved);
      resumed->load_state(r);
      dense = std::move(resumed);
    }
  }
  expect_same_run(*dense, *twin, sim::until(horizon), slots, what);
  return dense->stats().delivered_packets;
}

// Every protocol the generator runs at R > 1, under each injector kind
// and each per-station schedule, through interleave(): stops mid-
// hyperperiod, steps between runs and a kill-and-resume, each against the
// uninterrupted general twin.
TEST(Dense, PerStationEveryProtocolMatchesTheGeneralLoop) {
  const DenseSlots slots;
  for (const std::string& protocol : async_pool()) {
    std::uint64_t delivered = 0;
    for (const char* kind : kInjectorKinds) {
      for (const PerStation& ps : kPerStation) {
        auto materials = [&] {
          return protocol_materials(protocol, kind, ps.policy, ps.r);
        };
        delivered += interleave(materials, 700 * kTicksPerUnit, slots,
                                protocol + " " + kind + " " + ps.policy +
                                    " R=" + std::to_string(ps.r));
      }
    }
    EXPECT_GT(delivered, 0u) << protocol;
  }
  EXPECT_GT(slots.count(), 0u);
}

// The same protocols per-station with the engine's other state, through
// interleave(): prune cadences 1 and 16 with the channel history
// archived, the energy meter, and a 1-restrained channel in jam and in
// reject mode (the injector kind rotating across the variants).
TEST(Dense, PerStationPruneMeterAndRestrainedMatchTheGeneralLoop) {
  const DenseSlots slots;
  enum Variant { kPrune1, kPrune16, kMetered, kJam, kReject, kVariants };
  static const char* const kNames[] = {"prune=1 history", "prune=16 history",
                                       "metered", "jam", "reject"};
  for (const std::string& protocol : async_pool()) {
    for (const PerStation& ps : {kPerStation[2], kPerStation[3]}) {
      for (int v = 0; v < kVariants; ++v) {
        auto materials = [&] {
          sim::EngineMaterials m = protocol_materials(
              protocol, kInjectorKinds[v % 4], ps.policy, ps.r);
          switch (v) {
            case kPrune1:
            case kPrune16:
              m.cfg.prune_interval = v == kPrune1 ? 1 : 16;
              m.cfg.keep_channel_history = true;
              break;
            case kMetered:
              m.cfg.energy.enabled = true;
              m.cfg.energy.cost_transmit = 4;
              m.cfg.energy.cost_listen = 2;
              m.cfg.energy.cost_sleep = 1;
              break;
            default:
              m.cfg.restrained = channel::RestrainedSpec{1, v == kJam};
          }
          return m;
        };
        interleave(materials, 500 * kTicksPerUnit, slots,
                   protocol + " " + ps.policy + " R=" + std::to_string(ps.r) +
                       " " + kNames[v]);
      }
    }
  }
  EXPECT_GT(slots.count(), 0u);
}

// Autosave runs outside the engine (snapshot::AutoSaver::run), in
// chunks that end at each multiple of the interval K, so an autosaving
// run takes the dense loop for every slot. It saves at exactly the
// multiples of K, and each save holds the bytes a general-loop twin
// saves at the same slot count.
TEST(Dense, AutosavingRunStaysDense) {
  const DenseSlots slots;
  analysis::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 5;
  spec.bound_r = 3;
  spec.slot_policy = "perstation";
  spec.injector.rho = util::Ratio(1, 2);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.horizon_units = 600;
  spec.checkpoint_interval = 97;
  const sim::StopCondition stop =
      sim::until(spec.horizon_units * kTicksPerUnit);
  auto saves_of = [&spec](sim::Engine& engine, const sim::StopCondition& s,
                          const std::string& dir) {
    std::filesystem::remove_all(dir);
    snapshot::AutoSaver saver(dir, spec, /*retention=*/1000);
    saver.run(engine, s);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const std::string& path : saver.files())
      payloads.push_back(
          snapshot::read_file(path, snapshot::FileKind::kEngineRun));
    std::filesystem::remove_all(dir);
    return payloads;
  };

  auto dense = analysis::build_engine(spec);
  auto twin = analysis::build_engine(spec);
  ASSERT_TRUE(dense->dense());
  const std::uint64_t before = slots.count();
  const auto saved = saves_of(*dense, stop, "ckpt_dense_autosave_dir");
  const auto twin_saved =
      saves_of(*twin, general(stop), "ckpt_twin_autosave_dir");

  const std::uint64_t total = dense->stats().total_slots;
  EXPECT_EQ(dense->dense_slots(), total);
  EXPECT_EQ(slots.count() - before, total);
  EXPECT_EQ(twin->dense_slots(), 0u);
  EXPECT_EQ(bytes(*dense), bytes(*twin));
  ASSERT_EQ(saved.size(), total / spec.checkpoint_interval);
  ASSERT_GE(saved.size(), 5u);
  EXPECT_EQ(saved, twin_saved);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    const snapshot::ResumedRun run = snapshot::decode_checkpoint(saved[i]);
    EXPECT_EQ(run.engine->stats().total_slots,
              (i + 1) * spec.checkpoint_interval)
        << "save " << i;
  }
}

// A stop with a predicate, and a traced run, take the general loop: a
// predicate must see every event, and a trace records each. Neither adds
// a dense slot, and each ends where the dense loop would have.
TEST(Dense, RefusesPredicateStop) {
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
