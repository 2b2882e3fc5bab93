// asyncmac/analysis/experiment.h
//
// Declarative experiment grids: describe a sweep (protocol x n x R x rho
// x slot policy) once, run it, and get uniform records back for table or
// CSV rendering. Every cell is one analysis::RunSpec (cell_run_spec in
// analysis/grid.h), built through the shared materials() path. This is
// the machinery behind reproducible parameter studies on top of the
// simulator — the benches use hand-rolled loops for paper fidelity;
// downstream users get this instead.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "channel/transmission.h"
#include "energy/model.h"
#include "util/csv.h"
#include "util/types.h"

namespace asyncmac::analysis {

struct ExperimentSpec {
  /// Registry names to sweep (see analysis/registry.h).
  std::vector<std::string> protocols{"ao-arrow"};
  std::vector<std::uint32_t> station_counts{4};
  std::vector<std::uint32_t> bounds_r{2};
  std::vector<int> rho_percents{50};
  /// Slot-policy names (see adversary::make_slot_policy).
  std::vector<std::string> slot_policies{"perstation"};
  Tick burst_units = 16;
  Tick horizon_units = 100000;
  std::uint64_t seed = 1;
  /// Repetitions with derived seeds; records report per-seed results.
  /// Replicas of a cell no component of which draws from a seed
  /// (seed_invariant, analysis/run_spec.h) are computed once: their
  /// records differ only in the seed field.
  int seeds = 1;
  /// Worker threads for the sweep: 0 = hardware_concurrency, 1 = serial.
  /// Every run is an independent deterministic Engine, so the records are
  /// byte-identical for every jobs value (including their order).
  unsigned jobs = 0;
  /// Read by nothing. It stays only because perfbench/measure.cpp still
  /// sets it; not part of the spec fingerprint.
  unsigned cohort = 0;
  /// k-restrained channel for every cell (channel/transmission.h); k = 0
  /// is the unrestrained channel.
  channel::RestrainedSpec restrained;
  /// Per-slot energy accounting for every cell (energy/model.h,
  /// docs/ENERGY.md). Observation-only: enabling it changes no
  /// non-energy record field.
  energy::EnergyModel energy;
  /// When non-empty, run_grid keeps a manifest (grid-manifest.snap, see
  /// docs/CHECKPOINT.md) in this directory: after every finished cell the
  /// manifest is atomically rewritten with the completed-cell set and
  /// their records. A rerun with the same spec resumes at the first
  /// incomplete cell and returns records byte-identical to an
  /// uninterrupted sweep (cells are deterministic, so replayed or resumed
  /// makes no difference). A manifest from a *different* spec raises
  /// snapshot::SnapshotError(kMismatch), and a directory that cannot be
  /// created raises SnapshotError(kIo). jobs and checkpoint_dir are not
  /// part of the spec fingerprint.
  std::string checkpoint_dir;
};

struct ExperimentRecord {
  // Parameters.
  std::string protocol;
  std::uint32_t n = 0;
  std::uint32_t bound_r = 0;
  int rho_pct = 0;
  std::string slot_policy;
  std::uint64_t seed = 0;
  // Results.
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queued = 0;
  double max_queue_cost_units = 0;
  double final_queue_cost_units = 0;
  std::uint64_t collisions = 0;
  std::uint64_t control_msgs = 0;
  double delivered_fraction = 0;
  double p99_latency_units = 0;
  // Energy results (all zero unless spec.energy.enabled; docs/ENERGY.md).
  std::uint64_t energy_total = 0;         ///< sum of station charges
  std::uint64_t energy_peak_station = 0;  ///< largest single-station charge
  double energy_per_delivery = 0;         ///< total / delivered (0 if none)
};

/// Run the full cross product, on spec.jobs worker threads. Record order:
/// protocols x n x R x rho x policy x seed (innermost last) —
/// deterministic and independent of jobs: cells are enumerated up front
/// and each worker writes into its cell's pre-sized slot.
std::vector<ExperimentRecord> run_grid(const ExperimentSpec& spec);

/// Render records as an aligned ASCII table.
std::string to_table(const std::vector<ExperimentRecord>& records);

/// A records CSV file. The constructor writes the header, so a caller can
/// open it before the sweep that fills it and learn from ok() that the
/// path cannot be written before any cell runs. The energy columns are
/// opt-in (energy_columns = spec.energy.enabled): a sweep without energy
/// accounting writes byte-identical files to builds that predate the
/// energy subsystem.
class RecordsCsv {
 public:
  RecordsCsv(const std::string& path, bool energy_columns);
  /// Append one row per record.
  void write(const std::vector<ExperimentRecord>& records);
  /// Flushes, then reports whether everything so far reached the file.
  bool ok() { return csv_.ok(); }

 private:
  util::CsvWriter csv_;
  bool energy_columns_;
};

/// Open, write and flush in one call; false when the file cannot be
/// written.
bool write_csv(const std::vector<ExperimentRecord>& records,
               const std::string& path, bool energy_columns = false);

}  // namespace asyncmac::analysis
