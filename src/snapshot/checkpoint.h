// asyncmac/snapshot/checkpoint.h
//
// High-level checkpoint/resume for whole engine runs (docs/CHECKPOINT.md).
//
// A checkpoint file (FileKind::kEngineRun) carries two sections:
//   1. a RunSpec — the declarative configuration of the run (protocol
//      registry name, topology, adversaries, seed, recording flags), and
//   2. the Engine's serialized mutable state (sim::Engine::save_state).
// Resume rebuilds the engine from the RunSpec through analysis::materials
// (the construction path of every other run), then overwrites its mutable
// state; from that point the run continues bit-for-bit as the saved run
// would have (the determinism contract pinned by
// tests/test_checkpoint_engine.cpp).
//
// The AutoSaver is the standard EngineConfig::checkpoint_sink: it writes
// rotating, atomically-renamed snapshot files into a directory with
// bounded retention.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/run_spec.h"
#include "sim/engine.h"
#include "snapshot/format.h"
#include "snapshot/io.h"
#include "util/types.h"

namespace asyncmac::snapshot {

/// The run description a checkpoint embeds: analysis::RunSpec, with its
/// codec and engine factory (analysis/run_spec.h).
using RunSpec = analysis::RunSpec;
using analysis::build_engine;
using analysis::load_run_spec;
using analysis::save_run_spec;

/// Serialize spec + engine state into a kEngineRun payload (unframed).
std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec,
                                            const sim::Engine& engine);

/// Frame and atomically write a checkpoint file.
void write_checkpoint(const std::string& path, const RunSpec& spec,
                      const sim::Engine& engine);

struct ResumedRun {
  RunSpec spec;
  std::unique_ptr<sim::Engine> engine;
};

/// Decode a kEngineRun payload: rebuild the engine from the embedded
/// RunSpec and load the saved state into it. Throws SnapshotError on
/// corrupt payloads.
ResumedRun decode_checkpoint(const std::vector<std::uint8_t>& payload);

/// Read + validate a checkpoint file (magic, kind, version, CRC), then
/// decode it. Throws SnapshotError with a typed kind on every failure
/// mode; never undefined behaviour on corrupt input.
ResumedRun resume_checkpoint(const std::string& path);

/// The newest autosave in `dir`: the AutoSaver file (ckpt-<counter>.snap)
/// with the highest counter, in numeric order — the names stop sorting
/// as text past 999999 saves. Empty when `dir` holds none.
std::string newest_checkpoint(const std::string& dir);

/// Rotating checkpoint writer for EngineConfig::checkpoint_sink. Writes
/// ckpt-NNNNNN.snap files into `dir` (created if missing), numbering on
/// from the highest counter already there so newest_checkpoint finds its
/// latest save, and removes the oldest file it wrote once it has written
/// more than `retention`. Write errors propagate as SnapshotError(kIo) —
/// a checkpointed run should fail loudly, not silently stop
/// snapshotting.
class AutoSaver {
 public:
  AutoSaver(std::string dir, RunSpec spec, std::size_t retention = 3);

  void operator()(const sim::Engine& engine) { save(engine); }
  void save(const sim::Engine& engine);

  /// Paths currently on disk, oldest first.
  const std::vector<std::string>& files() const noexcept { return files_; }
  /// Most recent checkpoint path (empty before the first save).
  std::string latest() const {
    return files_.empty() ? std::string() : files_.back();
  }

 private:
  std::string dir_;
  RunSpec spec_;
  std::size_t retention_;
  std::uint64_t counter_ = 0;
  std::vector<std::string> files_;
};

}  // namespace asyncmac::snapshot
