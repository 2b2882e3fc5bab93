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
  // A run no engine can be built for (an unknown slot policy, n or R of
  // 0) refuses the sweep here, before any unit runs.
  for (const GridUnit& unit : plan.units)
    (void)materials(cell_run_spec(spec, plan.cells[unit.first]));
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

namespace {

template <typename S, typename Spec>
void grid_spec_fields(S& s, Spec& spec) {
  elements(s, spec.protocols, 8);  // a string's u64 length
  elements(s, spec.station_counts, 4);
  elements(s, spec.bounds_r, 4);
  elements(s, spec.rho_percents, 8,
           [&s](auto& rho) { field_as<std::int64_t>(s, rho); });
  elements(s, spec.slot_policies, 8);
  field(s, spec.burst_units);
  field(s, spec.horizon_units);
  field(s, spec.seed);
  field_as<std::int64_t>(s, spec.seeds);
  restrained_fields(s, spec.restrained);
  energy_model_fields(s, spec.energy);
}

template <typename S, typename Record>
void record_fields(S& s, Record& rec) {
  field(s, rec.protocol);
  field(s, rec.n);
  field(s, rec.bound_r);
  field_as<std::int64_t>(s, rec.rho_pct);
  field(s, rec.slot_policy);
  field(s, rec.seed);
  field(s, rec.injected);
  field(s, rec.delivered);
  field(s, rec.queued);
  field(s, rec.max_queue_cost_units);
  field(s, rec.final_queue_cost_units);
  field(s, rec.collisions);
  field(s, rec.control_msgs);
  field(s, rec.delivered_fraction);
  field(s, rec.p99_latency_units);
  field(s, rec.energy_total);
  field(s, rec.energy_peak_station);
  field(s, rec.energy_per_delivery);
}

/// The manifest payload: the sweep's fingerprint and cell count, then a
/// done flag per cell and each done cell's record.
template <typename S, typename Done, typename Records>
void manifest_fields(S& s, const std::string& dir, std::uint32_t fingerprint,
                     Done& done, Records& records) {
  echo(s, "grid manifest in " + dir + " was written for a different sweep",
       fingerprint);
  echo(s, "grid manifest in " + dir + " has a different cell count",
       done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    field_as<bool>(s, done[i]);
    if (done[i]) record_fields(s, records[i]);
  }
}

}  // namespace

void save_grid_spec(snapshot::Writer& w, const ExperimentSpec& spec) {
  grid_spec_fields(w, spec);
}

ExperimentSpec load_grid_spec(snapshot::Reader& r) {
  ExperimentSpec spec;
  grid_spec_fields(r, spec);
  return spec;
}

std::uint32_t grid_fingerprint(const ExperimentSpec& spec) {
  snapshot::Writer w;
  save_grid_spec(w, spec);
  return snapshot::crc32(w.buffer().data(), w.buffer().size());
}

void save_record(snapshot::Writer& w, const ExperimentRecord& rec) {
  record_fields(w, rec);
}

ExperimentRecord load_record(snapshot::Reader& r) {
  ExperimentRecord rec;
  record_fields(r, rec);
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
  manifest_fields(w, dir, fingerprint, done, records);
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
  manifest_fields(r, dir, fingerprint, done, records);
  r.expect_end();
  return static_cast<std::size_t>(std::count(done.begin(), done.end(), 1));
}

}  // namespace asyncmac::analysis
