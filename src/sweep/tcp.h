// asyncmac/sweep/tcp.h
//
// Real-socket transport for the sweep service (POSIX TCP, localhost or
// LAN). Thin by design: both ends of the protocol live in the sans-IO
// Coordinator/WorkerSession state machines (tested on the loopback
// harness); this file only pumps bytes, timestamps, and connection
// events between them and the kernel.
//
//   serve()      binds, accepts workers, drives a Coordinator until the
//                job completes, and returns the merged results. Blocking;
//                single-threaded poll() loop.
//   run_worker() connects to a coordinator and computes leased units
//                until Shutdown. Blocking; returns a process exit code.
//
// Used by `asyncmac_cli serve` / `asyncmac_cli worker` and the CI
// sweep-smoke job (3 workers, one SIGKILLed mid-sweep, merged output
// compared byte-for-byte against a single-process run).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/coordinator.h"
#include "sweep/worker.h"

namespace asyncmac::sweep {

struct ServeOptions {
  CoordinatorConfig coord;
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (reported via on_listening)
  std::uint64_t tick_ms = 100;
  /// Called once the listener is bound, with the actual port — the CI
  /// smoke job and tests use it to learn an ephemeral port, the CLI to
  /// print the "listening" line and write its port file before blocking.
  /// An exception it throws closes the listener and leaves serve().
  std::function<void(std::uint16_t)> on_listening;
};

struct ServeOutcome {
  std::vector<analysis::ExperimentRecord> records;  ///< grid jobs
  std::vector<verify::CaseVerdict> verdicts;        ///< fuzz jobs
};

/// Run a coordinator over real sockets until the job is complete and
/// every connection has drained its Shutdown (or a grace deadline for
/// dead peers has passed). It keeps accepting through that drain, so a
/// worker that joins the complete sweep is dismissed cleanly and exits 0.
/// Throws std::runtime_error on socket-layer failures (bind in use, ...);
/// worker misbehaviour never throws — the Coordinator absorbs it.
ServeOutcome serve(const ServeOptions& opt);

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "worker";
};

/// Join a sweep and work until the coordinator says Shutdown. Returns 0
/// on a clean finish, 1 on connection loss / protocol failure (the
/// error is written to stderr).
int run_worker(const WorkerOptions& opt);

}  // namespace asyncmac::sweep
