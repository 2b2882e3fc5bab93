#include "analysis/grid.h"

#include <algorithm>
#include <filesystem>

#include "sim/engine.h"
#include "snapshot/format.h"
#include "util/check.h"

namespace asyncmac::analysis {

namespace {

ExperimentRecord extract_record(const GridCell& cell,
                                const energy::EnergyModel& energy,
                                const sim::Engine& engine) {
  const metrics::RunStats& s = engine.stats();
  const channel::LedgerStats& ch = engine.channel_stats();
  const energy::EnergyMeter& meter = engine.energy_meter();
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

}  // namespace

unsigned grid_cohort_width(const ExperimentSpec&) { return 1; }

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

  // One unit per distinct run. A cell's seed replicas are contiguous (seed
  // innermost) and differ only in their seeds, so the first answers for
  // all: a seed-invariant cell's replicas are one run.
  const std::size_t seeds = static_cast<std::size_t>(spec.seeds);
  for (std::size_t base = 0; base < plan.cells.size(); base += seeds) {
    if (seed_invariant(cell_run_spec(spec, plan.cells[base]))) {
      plan.units.push_back({base, seeds});
    } else {
      for (std::size_t i = base; i < base + seeds; ++i)
        plan.units.push_back({i, 1});
    }
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
  std::vector<ExperimentRecord> runs;
  runs.reserve(firsts.size());
  for (std::size_t i : firsts) {
    const auto engine = build_engine(cell_run_spec(spec, plan.cells[i]));
    engine->run(sim::until(horizon));
    runs.push_back(extract_record(plan.cells[i], spec.energy, *engine));
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
