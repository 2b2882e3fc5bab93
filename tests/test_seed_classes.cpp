// Seed classes: which runs do not depend on their seed, and grids that
// compute each distinct run once. The seed-use matrix checks every
// declaration analysis::seed_invariant combines against the runs
// themselves; the grid tests check run sharing against one engine per
// cell, count the work it saves, pin the planner's one-run units and
// resume a partly completed seed class.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"

namespace asyncmac::analysis {
namespace {

// ------------------------------------------------------- seed-use matrix

/// Saturating and bursty under every target pattern, then maxqueue and
/// drain-chasing.
std::vector<adversary::InjectorSpec> matrix_injectors() {
  std::vector<adversary::InjectorSpec> out;
  for (const char* kind : {"saturating", "bursty"})
    for (const char* pattern : {"roundrobin", "single", "random"}) {
      adversary::InjectorSpec inj;
      inj.kind = kind;
      inj.pattern = pattern;
      inj.single_target = 2;
      inj.period_ticks = 7 * kTicksPerUnit;
      out.push_back(inj);
    }
  for (const char* kind : {"maxqueue", "drain-chasing"}) {
    adversary::InjectorSpec inj;
    inj.kind = kind;
    out.push_back(inj);
  }
  for (auto& inj : out) {
    inj.rho = util::Ratio(3, 5);
    inj.burst_ticks = 4 * kTicksPerUnit;
  }
  return out;
}

RunSpec matrix_spec(const std::string& protocol, const std::string& policy,
                    const adversary::InjectorSpec& injector) {
  RunSpec spec;
  spec.protocol = protocol;
  spec.n = 3;
  spec.bound_r = 2;
  spec.slot_policy = policy;
  spec.injector = injector;
  spec.horizon_units = 1000;
  spec.record_trace = true;
  spec.record_deliveries = true;
  return spec;
}

/// Everything a run reports that an unused seed must not move. Not the
/// Engine::save_state bytes: every station's RNG and the injector's are
/// saved whether or not they are ever drawn.
struct Observed {
  std::vector<trace::SlotRecord> slots;
  std::vector<sim::DeliveryRecord> deliveries;
  metrics::RunStats stats;
  channel::LedgerStats channel;

  bool operator==(const Observed&) const = default;
};

/// The run at replica `k` of a grid cell: seeds derived as plan_grid and
/// cell_run_spec derive them (injector seed = seed + 1).
Observed observe(RunSpec spec, int k) {
  spec.seed = 1 + static_cast<std::uint64_t>(k) * 1000003;
  spec.injector.seed = spec.seed + 1;
  auto engine = build_engine(spec);
  engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
  return {engine->trace().slots(), engine->deliveries(), engine->stats(),
          engine->channel_stats()};
}

std::string describe(const RunSpec& spec) {
  return spec.protocol + " / " + spec.slot_policy + " / " +
         spec.injector.kind + ":" + spec.injector.pattern;
}

TEST(SeedUse, SeedInvariantRunsAreIdenticalAcrossSeeds) {
  // Every registered protocol x slot policy x injector. Wherever
  // seed_invariant holds, three replicas must agree on the slot trace,
  // the delivery log, the stats and the channel stats.
  std::size_t invariant = 0;
  for (const auto& protocol : protocol_names())
    for (const auto& policy : adversary::slot_policy_names())
      for (const auto& injector : matrix_injectors()) {
        const RunSpec spec = matrix_spec(protocol, policy, injector);
        if (!seed_invariant(spec)) continue;
        ++invariant;
        const Observed first = observe(spec, 0);
        for (int k : {1, 2})
          EXPECT_TRUE(observe(spec, k) == first)
              << describe(spec) << " differs at replica " << k;
      }
  // 10 seed-free protocols x 5 seed-free policies x 6 seed-free injectors.
  EXPECT_EQ(invariant, 10u * 5u * 6u);
}

TEST(SeedUse, EveryDeclaredDrawerMovesItsRun) {
  // The other direction, once per declaration: a component that says it
  // draws from its seed changes the run when only that seed changes. It
  // keeps the matrix above honest — it can see a seed's effect.
  adversary::InjectorSpec roundrobin = matrix_injectors()[0];
  adversary::InjectorSpec random_target = matrix_injectors()[2];
  ASSERT_EQ(random_target.pattern, "random");
  std::vector<RunSpec> drawers;
  for (const auto& protocol : protocol_names())
    if (protocol_draws_rng(protocol))
      drawers.push_back(matrix_spec(protocol, "sync", roundrobin));
  EXPECT_EQ(drawers.size(), 3u);  // aloha, beb, csma-lbt
  drawers.push_back(matrix_spec("ao-arrow", "random", roundrobin));
  drawers.push_back(matrix_spec("ao-arrow", "sync", random_target));
  random_target.kind = "bursty";
  drawers.push_back(matrix_spec("ao-arrow", "sync", random_target));
  for (const RunSpec& spec : drawers) {
    EXPECT_FALSE(seed_invariant(spec)) << describe(spec);
    const Observed first = observe(spec, 0);
    EXPECT_FALSE(observe(spec, 1) == first && observe(spec, 2) == first)
        << describe(spec) << " never moved with its seed";
  }
}

// ------------------------------------------------------ grids share runs

/// What one engine per cell records — the fields run_grid_cells fills,
/// derived here independently of its run sharing, and on the general
/// loop (a never-true predicate), so the grid's dense runs are checked
/// against the general path.
ExperimentRecord one_engine_record(const ExperimentSpec& spec,
                                   const GridCell& cell) {
  auto engine = build_engine(cell_run_spec(spec, cell));
  sim::StopCondition stop = sim::until(spec.horizon_units * kTicksPerUnit);
  stop.predicate = [](const sim::Engine&) { return false; };
  engine->run(stop);
  const metrics::RunStats& s = engine->stats();
  ExperimentRecord rec;
  rec.protocol = cell.protocol;
  rec.n = cell.n;
  rec.bound_r = cell.bound_r;
  rec.rho_pct = cell.rho_pct;
  rec.slot_policy = cell.slot_policy;
  rec.seed = cell.seed;
  rec.injected = s.injected_packets;
  rec.delivered = s.delivered_packets;
  rec.queued = s.queued_packets;
  rec.max_queue_cost_units = to_units(s.max_queued_cost);
  rec.final_queue_cost_units = to_units(s.queued_cost);
  rec.collisions = engine->channel_stats().collided;
  rec.control_msgs = engine->channel_stats().control_transmissions;
  rec.delivered_fraction =
      s.injected_packets ? static_cast<double>(s.delivered_packets) /
                               static_cast<double>(s.injected_packets)
                         : 1.0;
  rec.p99_latency_units =
      s.latency.empty() ? 0.0 : to_units(s.latency.quantile(0.99));
  return rec;
}

std::vector<std::uint8_t> record_bytes(const ExperimentRecord& rec) {
  snapshot::Writer w;
  save_record(w, rec);
  return w.buffer();
}

/// Seed-free and seed-drawing protocols under the given policies.
ExperimentSpec mixed_spec(std::vector<std::string> policies) {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "aloha", "rrw"};
  spec.station_counts = {3};
  spec.bounds_r = {2};
  spec.rho_percents = {40, 70};
  spec.slot_policies = std::move(policies);
  spec.horizon_units = 400;
  spec.seeds = 3;
  return spec;
}

TEST(SeedClasses, GridRecordsMatchOneEnginePerCell) {
  // ca-arrow under sync and max takes the dense path.
  for (const auto& policies : std::vector<std::vector<std::string>>{
           {"perstation", "random"}, {"sync", "max"}}) {
    ExperimentSpec spec = mixed_spec(policies);
    const GridPlan plan = plan_grid(spec);
    std::vector<std::vector<std::uint8_t>> oracle;
    for (const GridCell& cell : plan.cells)
      oracle.push_back(record_bytes(one_engine_record(spec, cell)));
    for (unsigned jobs : {1u, 3u}) {
      spec.jobs = jobs;
      const auto records = run_grid(spec);
      ASSERT_EQ(records.size(), oracle.size());
      for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(record_bytes(records[i]), oracle[i])
            << policies.front() << " cell " << i << " jobs=" << jobs;
    }
  }
}

std::uint64_t engine_slots(const ExperimentSpec& spec) {
  auto& reg = telemetry::Registry::global();
  reg.reset_values();
  telemetry::set_enabled(true);
  (void)run_grid(spec);
  telemetry::set_enabled(false);
  return reg.counter("engine.slots").value();
}

TEST(SeedClasses, SeedFreeReplicasCostOneRun) {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "ao-arrow"};
  spec.station_counts = {3};
  spec.rho_percents = {50, 80};
  spec.horizon_units = 300;
  spec.jobs = 1;
  spec.seeds = 1;
  const std::uint64_t one = engine_slots(spec);
  ASSERT_GT(one, 0u);
  spec.seeds = 4;
  EXPECT_EQ(engine_slots(spec), one);

  spec.protocols = {"aloha"};
  spec.seeds = 1;
  const std::uint64_t aloha = engine_slots(spec);
  spec.seeds = 4;
  EXPECT_EQ(engine_slots(spec), 4 * aloha);
}

TEST(SeedClasses, ResumesAPartlyCompletedSeedClass) {
  // Units used to be chunks of cells, so a manifest written mid-sweep by
  // an older build may hold some replicas of a seed class done and the
  // rest not. The remaining replicas form their own run.
  ExperimentSpec spec;
  spec.protocols = {"ao-arrow", "aloha"};
  spec.station_counts = {3};
  spec.rho_percents = {60};
  spec.horizon_units = 400;
  spec.seeds = 3;
  spec.jobs = 1;
  const auto control = run_grid(spec);
  ASSERT_EQ(control.size(), 6u);

  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "asyncmac_seed_class_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // ao-arrow's class is cells 0-2 (replicas 1 and 2 left: one run),
  // aloha's cells 3-5 are three runs.
  std::vector<std::uint8_t> done = {1, 0, 0, 0, 1, 0};
  std::vector<ExperimentRecord> records(control.size());
  for (std::size_t i = 0; i < done.size(); ++i)
    if (done[i]) records[i] = control[i];
  write_grid_manifest(dir.string(), grid_fingerprint(spec), done, records);

  spec.checkpoint_dir = dir.string();
  const auto resumed = run_grid(spec);
  ASSERT_EQ(resumed.size(), control.size());
  for (std::size_t i = 0; i < control.size(); ++i)
    EXPECT_EQ(record_bytes(resumed[i]), record_bytes(control[i])) << i;

  std::vector<std::uint8_t> final_done(control.size(), 0);
  std::vector<ExperimentRecord> final_records(control.size());
  EXPECT_EQ(load_grid_manifest(dir.string(), grid_fingerprint(spec),
                               final_done, final_records),
            control.size());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ the plan

std::vector<std::size_t> unit_sizes(const GridPlan& plan) {
  std::vector<std::size_t> sizes;
  for (const GridUnit& u : plan.units) sizes.push_back(u.count);
  return sizes;
}

TEST(GridPlanTest, UnitsHoldRunsNotCells) {
  // One distinct run per unit: the 4 seed replicas of a seed-free cell,
  // or a single seed-drawing cell (aloha), whatever jobs is.
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow"};
  spec.station_counts = {16, 64};
  spec.bounds_r = {1};
  spec.rho_percents = {30, 50, 70, 90};
  spec.slot_policies = {"sync"};
  spec.seeds = 4;
  for (unsigned jobs : {1u, 4u}) {
    spec.jobs = jobs;
    EXPECT_EQ(unit_sizes(plan_grid(spec)), std::vector<std::size_t>(8, 4));
  }

  spec.protocols = {"ao-arrow", "aloha"};
  spec.station_counts = {4};
  spec.rho_percents = {50, 70};
  EXPECT_EQ(unit_sizes(plan_grid(spec)),
            (std::vector<std::size_t>{4, 4, 1, 1, 1, 1, 1, 1, 1, 1}));
}

}  // namespace
}  // namespace asyncmac::analysis
