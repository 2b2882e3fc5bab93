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
/// unit, inside one *block*: the contiguous cells sharing protocol, n, R
/// and slot policy — with a single slot policy in the spec a whole
/// rho x seed grid row, otherwise the seed replicas of one cell. Cells of
/// a unit differ only in seed and injector parameters (rho), so where the
/// lockstep path applies its runs batch as one sim::CohortEngine cohort.
/// A unit holds up to the plan's cohort width of distinct *runs*: the
/// seed replicas of a seed-invariant cell are one run, every other cell
/// is a run of its own.
struct GridUnit {
  std::size_t first = 0;
  std::size_t count = 0;
};

struct GridPlan {
  std::vector<GridCell> cells;
  std::vector<GridUnit> units;
  /// Runs per unit in the blocks the width applies to (grid_cohort_width).
  unsigned cohort_width = 1;
};

/// Enumerate the cross product and chunk each block into units of up to
/// cohort-width runs. Validates the spec the same way run_grid does
/// (throws std::invalid_argument). Its work beyond enumeration runs once
/// per block: one RunSpec's seed_invariant and, for auto width, one
/// lane's sim::lockstep_slot_lengths.
GridPlan plan_grid(const ExperimentSpec& spec);

/// The plan's cohort width, in runs per unit (plan_grid(spec).cohort_width).
/// An explicit spec.cohort = K puts up to K runs in every unit. Auto
/// (spec.cohort = 0) puts one run in each unit of a block whose runs
/// cannot take the cohort's lockstep path (sim::lockstep_slot_lengths) —
/// a wider unit there just runs its scalar engines on one thread. In the
/// blocks that can, it puts up to 8 runs (never more than the largest
/// such block holds), narrowed while the grid would have fewer units than
/// spec.jobs (0 = hardware concurrency) and then while narrowing keeps
/// the unit count; it returns that width, or 1 when no block takes the
/// lockstep path.
unsigned grid_cohort_width(const ExperimentSpec& spec);

/// The run one cell denotes: the cell's protocol, n, R, slot policy and
/// seed with the grid's horizon, channel variant and energy model, under
/// the grid workload — a saturating round-robin injector at rate
/// rho_pct / 100 with burstiness burst_units, seeded cell.seed + 1.
RunSpec cell_run_spec(const ExperimentSpec& spec, const GridCell& cell);

/// The byte encoding of the sweep-defining fields (every list
/// length-prefixed; not jobs / cohort / checkpoint_dir, which are
/// per-process choices). The distributed sweep's Welcome carries it, and
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
/// once: cells whose RunSpecs are seed replicas of a seed-invariant spec
/// share one run, whatever unit or resume state left them together. Two
/// or more runs that pass sim::lockstep_eligible run as one cohort, one
/// lane each; otherwise each run takes a scalar engine. Every cell's
/// record is its run's with the cell's own seed — byte-identical to one
/// engine per cell either way.
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
