// asyncmac/sweep/coordinator.h
//
// The sweep coordinator: leases work units to workers, reassigns leases
// whose holders stop heartbeating (or disconnect), deduplicates late and
// duplicate results idempotently, and merges records into the same
// grid-manifest.snap a single-process analysis::run_grid would write —
// so a distributed sweep resumes and finishes byte-identical to a local
// one (docs/DISTRIBUTED.md).
//
// The class is sans-IO: it owns no sockets, threads, or clocks. A
// transport (sweep/tcp.h for real sockets, sweep/loopback.h for the
// deterministic fault-injection harness) feeds it connection events,
// raw bytes and a monotonic now_ms, and executes the returned Actions.
// Everything the coordinator does is therefore a pure function of the
// event sequence — which is what makes every failure mode unit-testable
// without real networking or timing flakiness.
//
// Robustness contract: bytes from a worker are untrusted. Malformed
// frames or payloads (typed SnapshotError from the wire layer) sever
// that connection and return its leases to the pending pool; they never
// crash the coordinator or corrupt merged state (pinned by
// tests/test_sweep_fuzz.cpp).
//
// Lease state machine (per work unit):
//
//        assign                     result merged
//   PENDING ------> LEASED --------------------------> DONE
//      ^              |  heartbeat: deadline pushed     ^
//      |              v                                 |
//      +---- lease timeout / worker death          late result from a
//            (sweep.reassigns)                     revoked lease merges
//                                                  too (idempotent; a
//                                                  second copy counts
//                                                  sweep.dup_results)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/grid.h"
#include "sweep/protocol.h"
#include "verify/scenario.h"

namespace asyncmac::sweep {

struct CoordinatorConfig {
  SweepJob job;
  /// A lease not refreshed (by heartbeat, result, or any other frame
  /// from its holder) within this window returns to the pending pool.
  std::uint64_t lease_timeout_ms = 10000;
  /// Heartbeat cadence requested from workers (Welcome).
  std::uint64_t heartbeat_ms = 1000;
  /// Retry hint sent with NoWork when everything is leased.
  std::uint64_t nowork_retry_ms = 100;
  /// Grid jobs: when non-empty, merge into dir/grid-manifest.snap after
  /// every result (resuming an existing manifest on start), exactly as
  /// analysis::run_grid does with ExperimentSpec::checkpoint_dir. The
  /// constructor creates the directory (SnapshotError(kIo) if it cannot);
  /// a failed manifest write throws std::runtime_error out of on_bytes.
  std::string checkpoint_dir;
};

/// One transport instruction: send a frame to a connection, or close it.
struct Action {
  enum class Kind { kSend, kClose };
  Kind kind = Kind::kSend;
  std::uint64_t conn = 0;
  std::vector<std::uint8_t> frame;  ///< kSend only
};

class Coordinator {
 public:
  /// Builds the unit list (grid: analysis::plan_grid; fuzz: case-index
  /// chunks), loads an existing manifest when checkpointing, and is then
  /// ready for connections. Throws std::invalid_argument on an invalid
  /// job and SnapshotError(kMismatch) on a foreign manifest.
  explicit Coordinator(CoordinatorConfig cfg);

  // -- transport events ---------------------------------------------------
  std::vector<Action> on_connect(std::uint64_t conn, std::uint64_t now_ms);
  std::vector<Action> on_bytes(std::uint64_t conn, const std::uint8_t* data,
                               std::size_t n, std::uint64_t now_ms);
  /// Peer closed its end. A partial frame still buffered means the
  /// stream was severed mid-frame — handled, counted, never fatal.
  std::vector<Action> on_eof(std::uint64_t conn, std::uint64_t now_ms);
  /// Periodic: expires leases. Call at ~heartbeat_ms granularity.
  std::vector<Action> on_tick(std::uint64_t now_ms);

  // -- results ------------------------------------------------------------
  bool done() const noexcept { return units_done_ == units_.size(); }
  std::size_t units_total() const noexcept { return units_.size(); }
  std::size_t units_done() const noexcept { return units_done_; }
  std::uint32_t fingerprint() const noexcept { return fingerprint_; }

  /// Merged grid records (cell order — identical to run_grid's return).
  /// Valid when done() and job.kind == kGrid.
  const std::vector<analysis::ExperimentRecord>& grid_records() const {
    return records_;
  }
  /// Merged fuzz verdicts (case order — identical to run_campaign's).
  const std::vector<verify::CaseVerdict>& fuzz_verdicts() const {
    return verdicts_;
  }

 private:
  enum class UnitState : std::uint8_t { kPending, kLeased, kDone };
  struct Unit {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::uint64_t id = 0;  ///< work_unit_id(fingerprint, index)
    UnitState state = UnitState::kPending;
    std::uint64_t lease_id = 0;
    std::uint64_t holder = 0;       ///< conn of the lease holder
    std::uint64_t deadline_ms = 0;  ///< lease expiry (virtual transport time)
  };
  struct Conn {
    FrameDecoder decoder;
    std::uint32_t worker_id = 0;  ///< 0 until Hello
    bool shutdown_sent = false;
  };

  std::vector<Action> handle(std::uint64_t conn, const Message& msg,
                             std::uint64_t now_ms);
  std::vector<Action> handle_request(std::uint64_t conn,
                                     const RequestWorkMsg& m,
                                     std::uint64_t now_ms);
  std::vector<Action> handle_result(std::uint64_t conn, const ResultMsg& m,
                                    std::uint64_t now_ms);
  bool merge_grid_result(const Unit& unit, const ResultMsg& m);
  bool merge_fuzz_result(const Unit& unit, const ResultMsg& m);
  void refresh_leases(std::uint64_t conn, std::uint64_t now_ms);
  /// Return every lease held by `conn` to the pending pool.
  void revoke_leases(std::uint64_t conn);
  /// Sever a misbehaving connection: revoke + close + forget.
  std::vector<Action> sever(std::uint64_t conn, const char* why);
  std::vector<Action> drop_conn(std::uint64_t conn, bool death);
  /// Broadcast Shutdown once the last unit merges.
  void broadcast_shutdown(std::vector<Action>& out);
  void write_manifest() const;

  CoordinatorConfig cfg_;
  std::uint32_t fingerprint_ = 0;
  analysis::GridPlan plan_;                        // kGrid
  std::vector<analysis::ExperimentRecord> records_;  // kGrid, cell order
  std::vector<std::uint8_t> cell_done_;              // kGrid
  verify::ScenarioGen gen_;                        // kFuzz (seed validation)
  std::vector<verify::CaseVerdict> verdicts_;      // kFuzz, case order

  std::vector<Unit> units_;
  std::size_t units_done_ = 0;
  std::map<std::uint64_t, Conn> conns_;
  std::uint32_t next_worker_id_ = 0;
  std::uint64_t next_lease_id_ = 0;
};

}  // namespace asyncmac::sweep
