// Grid-manifest checkpointing (analysis::run_grid + ExperimentSpec::
// checkpoint_dir): a sweep resumed from a partially-complete manifest
// returns records byte-identical to an uninterrupted sweep, a complete
// manifest replays nothing, and a manifest written for a different sweep
// raises the typed kMismatch error instead of silently mixing results.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "snapshot/format.h"
#include "snapshot/io.h"

namespace asyncmac {
namespace {

using analysis::ExperimentRecord;
using analysis::ExperimentSpec;
using snapshot::ErrorKind;
using snapshot::SnapshotError;

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "rrw"};
  spec.station_counts = {2};
  spec.bounds_r = {2};
  spec.rho_percents = {40, 60};
  spec.slot_policies = {"perstation"};
  spec.horizon_units = 300;
  spec.seed = 7;
  spec.seeds = 2;
  spec.jobs = 2;
  return spec;  // 2 protocols x 2 rho x 2 seeds = 8 cells
}

/// Byte-level comparison surface: the rendered table covers every field
/// the CSV and CLI expose.
std::string fingerprint(const std::vector<ExperimentRecord>& records) {
  return analysis::to_table(records);
}

/// Skip one serialized ExperimentRecord (mirrors the manifest schema in
/// analysis/experiment.cpp; the manifest-surgery test below needs to walk
/// records without exporting the private loader).
void skip_record(snapshot::Reader& r) {
  r.str();  // protocol
  r.u32();  // n
  r.u32();  // bound_r
  r.i64();  // rho_pct
  r.str();  // slot_policy
  r.u64();  // seed
  r.u64();  // injected
  r.u64();  // delivered
  r.u64();  // queued
  r.f64();  // max_queue_cost_units
  r.f64();  // final_queue_cost_units
  r.u64();  // collisions
  r.u64();  // control_msgs
  r.f64();  // delivered_fraction
  r.f64();  // p99_latency_units
  r.u64();  // energy_total
  r.u64();  // energy_peak_station
  r.f64();  // energy_per_delivery
}

TEST(CheckpointGrid, ResumeFromPartialManifestIsByteIdentical) {
  const ExperimentSpec control_spec = small_spec();
  const std::string control = fingerprint(analysis::run_grid(control_spec));

  // Full checkpointed sweep: same records, manifest on disk.
  const std::string dir = "grid_ckpt_test";
  std::filesystem::remove_all(dir);
  ExperimentSpec spec = small_spec();
  spec.checkpoint_dir = dir;
  EXPECT_EQ(fingerprint(analysis::run_grid(spec)), control);
  const std::string manifest = dir + "/grid-manifest.snap";
  ASSERT_TRUE(std::filesystem::exists(manifest));

  // Manifest surgery — the deterministic stand-in for a SIGKILL
  // mid-sweep: mark two cells incomplete (dropping their records) and
  // rewrite the manifest. The resumed sweep recomputes exactly those
  // cells and must return the identical record set.
  const auto payload =
      snapshot::read_file(manifest, snapshot::FileKind::kGridManifest);
  snapshot::Reader r(payload);
  snapshot::Writer w;
  w.u32(r.u32());  // spec fingerprint, unchanged
  const std::uint64_t cells = r.u64();
  ASSERT_EQ(cells, 8u);
  w.u64(cells);
  for (std::uint64_t i = 0; i < cells; ++i) {
    ASSERT_TRUE(r.boolean());
    const std::size_t start = payload.size() - r.remaining();
    skip_record(r);
    const std::size_t end = payload.size() - r.remaining();
    const bool keep = i != 2 && i != 5;
    w.boolean(keep);
    if (keep) w.bytes(payload.data() + start, end - start);
  }
  r.expect_end();
  snapshot::write_file(manifest, snapshot::FileKind::kGridManifest,
                       w.buffer());

  EXPECT_EQ(fingerprint(analysis::run_grid(spec)), control);

  // The rewritten (now complete) manifest resumes to the same answer
  // again — replaying zero cells.
  EXPECT_EQ(fingerprint(analysis::run_grid(spec)), control);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGrid, ManifestFromDifferentSweepIsMismatch) {
  const std::string dir = "grid_ckpt_mismatch";
  std::filesystem::remove_all(dir);
  ExperimentSpec spec = small_spec();
  spec.checkpoint_dir = dir;
  analysis::run_grid(spec);

  // Same dimensions, different horizon: the fingerprint must refuse.
  ExperimentSpec other = spec;
  other.horizon_units = spec.horizon_units + 1;
  try {
    analysis::run_grid(other);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }

  // A different cell count must refuse too (not read garbage).
  ExperimentSpec wider = spec;
  wider.rho_percents = {40, 60, 80};
  try {
    analysis::run_grid(wider);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGrid, ListBoundariesSeparateFingerprints) {
  // n={4} x R={2,3} and n={4,2} x R={3} concatenate to the same values
  // and have the same cell count; only the list lengths tell them apart.
  ExperimentSpec a = small_spec();
  a.protocols = {"ao-arrow"};
  a.station_counts = {4};
  a.bounds_r = {2, 3};
  a.rho_percents = {50};
  a.seeds = 1;
  ExperimentSpec b = a;
  b.station_counts = {4, 2};
  b.bounds_r = {3};
  EXPECT_NE(analysis::grid_fingerprint(a), analysis::grid_fingerprint(b));

  const std::string dir = "grid_ckpt_boundaries";
  std::filesystem::remove_all(dir);
  a.checkpoint_dir = dir;
  b.checkpoint_dir = dir;
  analysis::run_grid(a);
  try {
    analysis::run_grid(b);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointGrid, JobsValueDoesNotPerturbResumedRecords) {
  // The determinism contract says records are independent of jobs;
  // resuming under a different worker count must preserve that.
  const std::string dir = "grid_ckpt_jobs";
  std::filesystem::remove_all(dir);
  ExperimentSpec spec = small_spec();
  spec.checkpoint_dir = dir;
  spec.jobs = 1;
  const std::string serial = fingerprint(analysis::run_grid(spec));
  spec.jobs = 4;
  EXPECT_EQ(fingerprint(analysis::run_grid(spec)), serial);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace asyncmac
