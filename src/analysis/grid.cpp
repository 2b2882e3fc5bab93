#include "analysis/grid.h"

#include <algorithm>
#include <filesystem>

#include "energy/meter.h"
#include "sim/cohort_engine.h"
#include "sim/engine.h"
#include "snapshot/format.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace asyncmac::analysis {

namespace {

ExperimentRecord extract_record(const GridCell& cell,
                                const energy::EnergyModel& energy,
                                const metrics::RunStats& s,
                                const channel::LedgerStats& ch,
                                const energy::EnergyMeter& meter) {
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
  rec.collisions = ch.collided;
  rec.control_msgs = ch.control_transmissions;
  rec.delivered_fraction =
      s.injected_packets ? static_cast<double>(s.delivered_packets) /
                               static_cast<double>(s.injected_packets)
                         : 1.0;
  rec.p99_latency_units =
      s.latency.empty() ? 0.0 : to_units(s.latency.quantile(0.99));
  if (energy.enabled) {
    rec.energy_total = meter.total_charge(energy);
    rec.energy_peak_station = meter.peak_station_charge(energy);
    rec.energy_per_delivery =
        s.delivered_packets ? static_cast<double>(rec.energy_total) /
                                  static_cast<double>(s.delivered_packets)
                            : 0.0;
  }
  return rec;
}

/// Cells per block (GridUnit). Seed replicas of one base cell are always
/// contiguous (seed innermost); with a single slot policy the whole
/// rho x seed sub-block of one (protocol, n, R) row is contiguous too,
/// and rho only parameterizes the injector — free under cohort
/// eligibility — so the block grows to rho_percents.size() * seeds.
std::size_t chunk_block(const ExperimentSpec& spec) {
  const std::size_t seeds = static_cast<std::size_t>(spec.seeds);
  return spec.slot_policies.size() == 1 ? seeds * spec.rho_percents.size()
                                        : seeds;
}

/// One block, counted in runs: `run_cells` contiguous cells (the seed
/// replicas of a seed-invariant cell, else one cell) make one run.
struct Block {
  std::size_t first = 0;
  std::size_t runs = 0;
  std::size_t run_cells = 1;
  bool lockstep = false;  ///< its runs can take the cohort lockstep path
};

/// The auto width (grid_cohort_width): the widest that still leaves at
/// least `jobs` units, then narrowed while the unit count stays the same,
/// which evens the units out (4 runs at width 3 are units of 3 and 1, at
/// width 2 of 2 and 2).
unsigned auto_width(const ExperimentSpec& spec,
                    const std::vector<Block>& blocks) {
  std::size_t width = 1;
  for (const Block& b : blocks)
    if (b.lockstep) width = std::max(width, std::min<std::size_t>(8, b.runs));
  const std::size_t jobs = util::ThreadPool::resolve_jobs(spec.jobs);
  auto units_at = [&](std::size_t w) {
    std::size_t units = 0;
    for (const Block& b : blocks)
      units += b.lockstep ? (b.runs + w - 1) / w : b.runs;
    return units;
  };
  while (width > 1 && units_at(width) < jobs) --width;
  while (width > 1 && units_at(width - 1) == units_at(width)) --width;
  return static_cast<unsigned>(width);
}

}  // namespace

unsigned grid_cohort_width(const ExperimentSpec& spec) {
  return plan_grid(spec).cohort_width;
}

GridPlan plan_grid(const ExperimentSpec& spec) {
  AM_REQUIRE(!spec.protocols.empty() && !spec.station_counts.empty() &&
                 !spec.bounds_r.empty() && !spec.rho_percents.empty() &&
                 !spec.slot_policies.empty(),
             "every sweep dimension needs at least one value");
  AM_REQUIRE(spec.seeds >= 1, "need at least one seed");
  AM_REQUIRE(spec.horizon_units > 0, "horizon must be positive");

  GridPlan plan;
  for (const auto& protocol : spec.protocols)
    for (std::uint32_t n : spec.station_counts)
      for (std::uint32_t r : spec.bounds_r)
        for (int rho : spec.rho_percents)
          for (const auto& policy : spec.slot_policies)
            for (int s = 0; s < spec.seeds; ++s)
              plan.cells.push_back(
                  {protocol, n, r, rho, policy,
                   spec.seed + static_cast<std::uint64_t>(s) * 1000003});

  // Count each block in runs. Every cell of a block shares protocol, n,
  // R, policy and the injector kind, so one cell answers for all: its
  // seed use (the seed replicas of a seed-invariant cell are one run) and
  // whether its runs can take the lockstep path.
  const std::size_t block = chunk_block(spec);
  const std::size_t seeds = static_cast<std::size_t>(spec.seeds);
  std::vector<Block> blocks;
  for (std::size_t base = 0; base < plan.cells.size(); base += block) {
    const RunSpec run = cell_run_spec(spec, plan.cells[base]);
    Block b;
    b.first = base;
    b.run_cells = seed_invariant(run) ? seeds : 1;
    b.runs = block / b.run_cells;
    b.lockstep =
        spec.cohort == 0 && !sim::lockstep_slot_lengths(materials(run)).empty();
    blocks.push_back(b);
  }

  // Work units: chunks of up to `cohort_width` runs within each block
  // (one run per unit where auto width finds no lockstep path). A unit is
  // [first, first + count) in cell order.
  plan.cohort_width = spec.cohort != 0 ? spec.cohort : auto_width(spec, blocks);
  for (const Block& b : blocks) {
    const std::size_t width =
        spec.cohort != 0 || b.lockstep ? plan.cohort_width : 1;
    for (std::size_t r = 0; r < b.runs; r += width)
      plan.units.push_back({b.first + r * b.run_cells,
                            std::min(width, b.runs - r) * b.run_cells});
  }
  return plan;
}

RunSpec cell_run_spec(const ExperimentSpec& spec, const GridCell& cell) {
  RunSpec run;
  run.protocol = cell.protocol;
  run.n = cell.n;
  run.bound_r = cell.bound_r;
  run.slot_policy = cell.slot_policy;
  run.seed = cell.seed;
  run.horizon_units = spec.horizon_units;
  run.injector.rho = util::Ratio(cell.rho_pct, 100);
  run.injector.burst_ticks = spec.burst_units * kTicksPerUnit;
  run.injector.seed = cell.seed + 1;
  run.restrained = spec.restrained;
  run.energy = spec.energy;
  return run;
}

void save_grid_spec(snapshot::Writer& w, const ExperimentSpec& spec) {
  snapshot::save_strings(w, spec.protocols);
  w.u64(spec.station_counts.size());
  for (std::uint32_t n : spec.station_counts) w.u32(n);
  w.u64(spec.bounds_r.size());
  for (std::uint32_t r : spec.bounds_r) w.u32(r);
  w.u64(spec.rho_percents.size());
  for (int rho : spec.rho_percents) w.i64(rho);
  snapshot::save_strings(w, spec.slot_policies);
  w.i64(spec.burst_units);
  w.i64(spec.horizon_units);
  w.u64(spec.seed);
  w.i64(spec.seeds);
  save_restrained(w, spec.restrained);
  save_energy_model(w, spec.energy);
}

ExperimentSpec load_grid_spec(snapshot::Reader& r) {
  ExperimentSpec spec;
  spec.protocols = snapshot::load_strings(r);
  spec.station_counts.resize(r.count(4));
  for (auto& n : spec.station_counts) n = r.u32();
  spec.bounds_r.resize(r.count(4));
  for (auto& bound : spec.bounds_r) bound = r.u32();
  spec.rho_percents.resize(r.count(8));
  for (auto& rho : spec.rho_percents) rho = static_cast<int>(r.i64());
  spec.slot_policies = snapshot::load_strings(r);
  spec.burst_units = r.i64();
  spec.horizon_units = r.i64();
  spec.seed = r.u64();
  spec.seeds = static_cast<int>(r.i64());
  spec.restrained = load_restrained(r);
  spec.energy = load_energy_model(r);
  return spec;
}

std::uint32_t grid_fingerprint(const ExperimentSpec& spec) {
  snapshot::Writer w;
  save_grid_spec(w, spec);
  return snapshot::crc32(w.buffer().data(), w.buffer().size());
}

void save_record(snapshot::Writer& w, const ExperimentRecord& rec) {
  w.str(rec.protocol);
  w.u32(rec.n);
  w.u32(rec.bound_r);
  w.i64(rec.rho_pct);
  w.str(rec.slot_policy);
  w.u64(rec.seed);
  w.u64(rec.injected);
  w.u64(rec.delivered);
  w.u64(rec.queued);
  w.f64(rec.max_queue_cost_units);
  w.f64(rec.final_queue_cost_units);
  w.u64(rec.collisions);
  w.u64(rec.control_msgs);
  w.f64(rec.delivered_fraction);
  w.f64(rec.p99_latency_units);
  w.u64(rec.energy_total);
  w.u64(rec.energy_peak_station);
  w.f64(rec.energy_per_delivery);
}

ExperimentRecord load_record(snapshot::Reader& r) {
  ExperimentRecord rec;
  rec.protocol = r.str();
  rec.n = r.u32();
  rec.bound_r = r.u32();
  rec.rho_pct = static_cast<int>(r.i64());
  rec.slot_policy = r.str();
  rec.seed = r.u64();
  rec.injected = r.u64();
  rec.delivered = r.u64();
  rec.queued = r.u64();
  rec.max_queue_cost_units = r.f64();
  rec.final_queue_cost_units = r.f64();
  rec.collisions = r.u64();
  rec.control_msgs = r.u64();
  rec.delivered_fraction = r.f64();
  rec.p99_latency_units = r.f64();
  rec.energy_total = r.u64();
  rec.energy_peak_station = r.u64();
  rec.energy_per_delivery = r.f64();
  return rec;
}

std::vector<ExperimentRecord> run_grid_cells(
    const ExperimentSpec& spec, const GridPlan& plan,
    const std::vector<std::size_t>& todo) {
  AM_REQUIRE(!todo.empty(), "run_grid_cells needs at least one cell");
  for (std::size_t i : todo)
    AM_REQUIRE(i < plan.cells.size(), "cell index out of range");

  const GridCell& c0 = plan.cells[todo.front()];
  for (std::size_t i : todo) {
    const GridCell& c = plan.cells[i];
    AM_REQUIRE(c.protocol == c0.protocol && c.n == c0.n &&
                   c.bound_r == c0.bound_r && c.slot_policy == c0.slot_policy,
               "cells of one work unit must share protocol, n, R and policy");
  }

  // Distinct runs, in first-cell order. A run's key is its cell's RunSpec
  // with the seeds cleared when nothing draws from them, so the seed
  // replicas of a seed-invariant cell share one key; the run itself is
  // its first cell's.
  std::vector<RunSpec> keys;
  std::vector<std::size_t> firsts;              // each run's first cell
  std::vector<std::size_t> run_of(todo.size());  // todo position -> run
  for (std::size_t k = 0; k < todo.size(); ++k) {
    RunSpec key = cell_run_spec(spec, plan.cells[todo[k]]);
    if (seed_invariant(key)) key.seed = key.injector.seed = 0;
    const auto it = std::find(keys.begin(), keys.end(), key);
    run_of[k] = static_cast<std::size_t>(it - keys.begin());
    if (it == keys.end()) {
      keys.push_back(std::move(key));
      firsts.push_back(todo[k]);
    }
  }

  const Tick horizon = spec.horizon_units * kTicksPerUnit;
  std::vector<sim::LaneMaterials> lanes;
  lanes.reserve(firsts.size());
  for (std::size_t i : firsts)
    lanes.push_back(materials(cell_run_spec(spec, plan.cells[i])));
  std::vector<ExperimentRecord> runs;
  runs.reserve(firsts.size());
  if (lanes.size() >= 2 && sim::lockstep_eligible(lanes)) {
    sim::CohortEngine cohort(std::move(lanes));
    cohort.run(sim::until(horizon));
    for (std::size_t j = 0; j < firsts.size(); ++j)
      runs.push_back(extract_record(plan.cells[firsts[j]], spec.energy,
                                    cohort.stats(j), cohort.channel_stats(j),
                                    cohort.energy_meter(j)));
  } else {
    for (std::size_t j = 0; j < firsts.size(); ++j) {
      sim::LaneMaterials& m = lanes[j];
      sim::Engine engine(std::move(m.cfg), std::move(m.protocols),
                         std::move(m.slot_policy), std::move(m.injection));
      engine.run(sim::until(horizon));
      runs.push_back(extract_record(plan.cells[firsts[j]], spec.energy,
                                    engine.stats(), engine.channel_stats(),
                                    engine.energy_meter()));
    }
  }

  std::vector<ExperimentRecord> out;
  out.reserve(todo.size());
  for (std::size_t k = 0; k < todo.size(); ++k) {
    out.push_back(runs[run_of[k]]);
    out.back().seed = plan.cells[todo[k]].seed;
  }
  return out;
}

std::string grid_manifest_path(const std::string& dir) {
  return dir + "/grid-manifest.snap";
}

void write_grid_manifest(const std::string& dir, std::uint32_t fingerprint,
                         const std::vector<std::uint8_t>& done,
                         const std::vector<ExperimentRecord>& records) {
  snapshot::Writer w;
  w.u32(fingerprint);
  w.u64(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    w.boolean(done[i] != 0);
    if (done[i]) save_record(w, records[i]);
  }
  snapshot::write_file(grid_manifest_path(dir),
                       snapshot::FileKind::kGridManifest, w.buffer());
}

std::size_t load_grid_manifest(const std::string& dir,
                               std::uint32_t fingerprint,
                               std::vector<std::uint8_t>& done,
                               std::vector<ExperimentRecord>& records) {
  if (!std::filesystem::exists(grid_manifest_path(dir))) return 0;
  const auto payload = snapshot::read_file(
      grid_manifest_path(dir), snapshot::FileKind::kGridManifest);
  snapshot::Reader r(payload);
  if (r.u32() != fingerprint)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "grid manifest in " + dir + " was written for a different sweep");
  if (r.u64() != done.size())
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "grid manifest in " + dir + " has a different cell count");
  std::size_t completed = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    done[i] = r.boolean() ? 1 : 0;
    if (done[i]) {
      records[i] = load_record(r);
      ++completed;
    }
  }
  r.expect_end();
  return completed;
}

}  // namespace asyncmac::analysis
