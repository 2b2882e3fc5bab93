// asyncmac/analysis/grid.h
//
// The shared internals of experiment-grid execution: cell enumeration,
// each cell's RunSpec, work-unit planning in distinct runs, the grid-spec
// encoding and its fingerprint, record (de)serialization and the
// resumable grid manifest (docs/CHECKPOINT.md).
//
// analysis::run_grid composes these on a local thread pool; the
// distributed sweep service (src/sweep/, docs/DISTRIBUTED.md) composes
// the *same* pieces across processes — a coordinator plans units and
// merges records/manifest, workers execute run_grid_cells. Both paths
// therefore produce byte-identical records and manifest files by
// construction: every cell is a deterministic run and the enumeration
// order below is the single source of truth.
//
// A cell's record depends on its seed only when some component of its
// run draws from one (analysis::seed_invariant). The seed replicas of
// every other cell are one run: the planner counts them once and
// run_grid_cells computes them once, writing each replica's record with
// its own seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/run_spec.h"
#include "snapshot/io.h"
#include "util/types.h"

namespace asyncmac::analysis {

/// One grid cell with every dimension resolved (seed included). Cells are
/// enumerated protocols x n x R x rho x policy x seed, seed innermost —
/// the documented record order of run_grid.
struct GridCell {
  std::string protocol;
  std::uint32_t n = 0;
  std::uint32_t bound_r = 0;
  int rho_pct = 0;
  std::string slot_policy;
  std::uint64_t seed = 0;
};

/// A contiguous range [first, first + count) of cells forming one work
/// unit: one distinct *run*. That is the seed replicas of a
/// seed-invariant cell, computed once, or a single cell.
struct GridUnit {
  std::size_t first = 0;
  std::size_t count = 0;
};

struct GridPlan {
  std::vector<GridCell> cells;
  std::vector<GridUnit> units;
};

/// Enumerate the cross product and make one unit per distinct run.
/// Validates the spec the same way run_grid does (throws
/// std::invalid_argument). Its work beyond enumeration is one
/// seed_invariant test per cell's seed replicas.
GridPlan plan_grid(const ExperimentSpec& spec);

/// Returns 1. Nothing in the library reads ExperimentSpec::cohort; this
/// stays only while perfbench/measure.cpp still calls it.
unsigned grid_cohort_width(const ExperimentSpec& spec);

/// The run one cell denotes: the cell's protocol, n, R, slot policy and
/// seed with the grid's horizon, channel variant and energy model, under
/// the grid workload — a saturating round-robin injector at rate
/// rho_pct / 100 with burstiness burst_units, seeded cell.seed + 1.
RunSpec cell_run_spec(const ExperimentSpec& spec, const GridCell& cell);

/// The byte encoding of the sweep-defining fields (every list
/// length-prefixed; not jobs / checkpoint_dir, which are per-process
/// choices). The distributed sweep's Welcome carries it, and
/// grid_fingerprint is its CRC. load_grid_spec throws typed
/// snapshot::SnapshotErrors on malformed input.
void save_grid_spec(snapshot::Writer& w, const ExperimentSpec& spec);
ExperimentSpec load_grid_spec(snapshot::Reader& r);

/// CRC-32 of save_grid_spec: a manifest — or a distributed worker — only
/// serves the exact grid it was planned for.
std::uint32_t grid_fingerprint(const ExperimentSpec& spec);

/// ExperimentRecord payload serialization (manifest rows and sweep
/// Result messages share this encoding).
void save_record(snapshot::Writer& w, const ExperimentRecord& rec);
ExperimentRecord load_record(snapshot::Reader& r);

/// Run the cells at `todo` (indices into plan.cells; all must share
/// protocol, n, R and slot policy — seed and rho may differ) and return
/// their records in todo order. Each distinct run among them is computed
/// once, on one Engine: cells whose RunSpecs are seed replicas of a
/// seed-invariant spec share one run, whatever unit or resume state left
/// them together. Every cell's record is its run's with the cell's own
/// seed — byte-identical to one engine per cell.
std::vector<ExperimentRecord> run_grid_cells(
    const ExperimentSpec& spec, const GridPlan& plan,
    const std::vector<std::size_t>& todo);

// ------------------------------------------------------- grid manifest

std::string grid_manifest_path(const std::string& dir);

/// Atomically rewrite dir/grid-manifest.snap with the completed-cell set
/// and their records (done[i] != 0 => records[i] is final).
void write_grid_manifest(const std::string& dir, std::uint32_t fingerprint,
                         const std::vector<std::uint8_t>& done,
                         const std::vector<ExperimentRecord>& records);

/// Load the manifest (when one exists) into done/records; returns the
/// number of already-completed cells. Throws SnapshotError(kMismatch) on
/// a manifest from a different spec or cell count.
std::size_t load_grid_manifest(const std::string& dir,
                               std::uint32_t fingerprint,
                               std::vector<std::uint8_t>& done,
                               std::vector<ExperimentRecord>& records);

}  // namespace asyncmac::analysis
