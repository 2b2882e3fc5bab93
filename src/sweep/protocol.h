// asyncmac/sweep/protocol.h
//
// Message payloads of the distributed-sweep protocol (framing in
// sweep/wire.h, semantics in docs/DISTRIBUTED.md). The conversation:
//
//   worker                         coordinator
//   Hello{name}            ->
//                          <-      Welcome{worker_id, timings, job}
//   RequestWork{id}        ->
//                          <-      Assign{lease, unit}  |  NoWork  |  Shutdown
//   (compute unit ...)
//   Result{lease, unit,
//          payload}        ->
//                          <-      ResultAck{unit, duplicate?}
//   RequestWork{id}        ->      ...
//   Heartbeat{id}          ->      (any time; refreshes lease deadlines)
//
// A job is either an experiment grid (analysis::ExperimentSpec in the
// analysis::save_grid_spec encoding — the sweep-defining fields only,
// never execution knobs; grid_fingerprint is the CRC of the same bytes)
// or a fuzz campaign (seed / cases / chunk / protocol pool). Work units
// are identified by a splittable 64-bit id derived from the job
// fingerprint and the unit
// index (the verify::ScenarioGen idiom), so coordinator and worker agree
// on unit identity without shared state and duplicate or late results
// deduplicate idempotently.
//
// All payloads use the snapshot::Writer/Reader encoding; every decoder
// finishes with expect_end() and surfaces malformed input as typed
// snapshot::SnapshotError — never a crash.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/experiment.h"
#include "sweep/wire.h"
#include "verify/campaign.h"

namespace asyncmac::sweep {

// ----------------------------------------------------------------- jobs

enum class JobKind : std::uint8_t {
  kGrid = 1,  ///< analysis experiment grid (cells = units' atoms)
  kFuzz = 2,  ///< verify fuzz campaign (case-index chunks)
};

/// Fuzz-campaign job parameters: the deterministic subset of
/// verify::CampaignConfig a remote worker needs (per-case verdicts are a
/// pure function of these; shrinking stays coordinator-local).
struct FuzzJob {
  std::uint64_t seed = 1;
  std::uint64_t cases = 0;
  std::uint64_t chunk = 64;  ///< cases per work unit
  std::vector<std::string> protocols;  ///< empty = default pool

  bool operator==(const FuzzJob&) const = default;
};

struct SweepJob {
  JobKind kind = JobKind::kGrid;
  analysis::ExperimentSpec grid;  ///< meaningful when kind == kGrid
  FuzzJob fuzz;                   ///< meaningful when kind == kFuzz
};

/// CRC over the job-defining dimensions (grid_fingerprint for grids; the
/// seed/cases/chunk/pool tuple for fuzz jobs).
std::uint32_t job_fingerprint(const SweepJob& job);

/// Splittable work-unit identity: a SplitMix64 mix of (fingerprint,
/// index), mirroring verify::ScenarioGen::case_seed — documented, stable,
/// and reconstructible by any party from the job alone.
std::uint64_t work_unit_id(std::uint32_t fingerprint, std::uint64_t index);

// ------------------------------------------------------------- messages

struct HelloMsg {
  std::string worker_name;
};

struct WelcomeMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t heartbeat_ms = 1000;      ///< requested heartbeat cadence
  std::uint64_t lease_timeout_ms = 10000; ///< coordinator's lease patience
  SweepJob job;
};

struct RequestWorkMsg {
  std::uint32_t worker_id = 0;
};

struct AssignMsg {
  std::uint64_t lease_id = 0;    ///< unique per grant (monotone)
  std::uint64_t unit_index = 0;  ///< index into the job's unit list
  std::uint64_t unit_id = 0;     ///< work_unit_id(fingerprint, unit_index)
  std::uint64_t first = 0;       ///< first cell / case index
  std::uint64_t count = 0;       ///< cells / cases in the unit
};

struct ResultMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t unit_index = 0;
  std::uint64_t unit_id = 0;
  std::vector<std::uint8_t> payload;  ///< encode_grid_result / encode_fuzz_result
};

struct ResultAckMsg {
  std::uint64_t unit_index = 0;
  bool duplicate = false;  ///< true when the unit was already merged
};

struct HeartbeatMsg {
  std::uint32_t worker_id = 0;
};

struct NoWorkMsg {
  std::uint64_t retry_ms = 100;  ///< everything leased; ask again later
};

struct ShutdownMsg {
  std::string reason;  ///< "complete", or an error description
};

using Message =
    std::variant<HelloMsg, WelcomeMsg, RequestWorkMsg, AssignMsg, ResultMsg,
                 ResultAckMsg, HeartbeatMsg, NoWorkMsg, ShutdownMsg>;

/// Full frame bytes (header + payload) for each message type.
std::vector<std::uint8_t> to_frame(const HelloMsg& m);
std::vector<std::uint8_t> to_frame(const WelcomeMsg& m);
std::vector<std::uint8_t> to_frame(const RequestWorkMsg& m);
std::vector<std::uint8_t> to_frame(const AssignMsg& m);
std::vector<std::uint8_t> to_frame(const ResultMsg& m);
std::vector<std::uint8_t> to_frame(const ResultAckMsg& m);
std::vector<std::uint8_t> to_frame(const HeartbeatMsg& m);
std::vector<std::uint8_t> to_frame(const NoWorkMsg& m);
std::vector<std::uint8_t> to_frame(const ShutdownMsg& m);

/// Decode a validated frame into its message. Throws a typed
/// SnapshotError (kTruncated / kCorrupt) on malformed payloads.
Message decode_message(const Frame& frame);

// -------------------------------------------------------- result payloads

std::vector<std::uint8_t> encode_grid_result(
    const std::vector<analysis::ExperimentRecord>& records);
std::vector<analysis::ExperimentRecord> decode_grid_result(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_fuzz_result(
    const std::vector<verify::CaseVerdict>& verdicts);
std::vector<verify::CaseVerdict> decode_fuzz_result(
    const std::vector<std::uint8_t>& payload);

}  // namespace asyncmac::sweep
