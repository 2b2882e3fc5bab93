// asyncmac/telemetry/jsonl.h
//
// Streaming JSONL (one JSON object per line) event export for live runs.
// Every line is self-contained, flushed as soon as it is written, and
// carries a monotonic elapsed-ms stamp, so a long grid sweep or fuzz
// campaign can be watched with `tail -f run.jsonl` and summarized at any
// point with `asyncmac_cli stats run.jsonl`.
//
// Line schema (see docs/OBSERVABILITY.md):
//   {"type":"meta","version":1,"start_unix_ms":...}
//   {"type":"event","name":"...","t_ms":N,"fields":{...}}
//   {"type":"snapshot","seq":K,"t_ms":N,"reason":"...",
//    "counters":{...},"gauges":{...},
//    "timers":{"name":{"count":..,"min_ns":..,"mean_ns":..,
//                      "p50_ns":..,"p99_ns":..,"max_ns":..}}}
//
// A background flusher thread appends a snapshot line every
// snapshot_period (default 1 s) while the process works, plus a final
// snapshot at teardown. The thread only reads instruments (relaxed
// atomics / the timer mutex) and its own output mutex — it never touches
// simulation state, preserving the determinism guarantee.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "telemetry/registry.h"

namespace asyncmac::telemetry {

using FieldValue =
    std::variant<std::int64_t, std::uint64_t, double, bool, std::string>;
using Fields = std::vector<std::pair<std::string, FieldValue>>;

class JsonlExporter {
 public:
  struct Options {
    std::string path;
    /// Cadence of background snapshot lines; zero disables the flusher
    /// thread (snapshots then only appear at teardown / snapshot_now).
    std::chrono::milliseconds snapshot_period{1000};
  };

  explicit JsonlExporter(Options options);
  /// Emits a final "teardown" snapshot and joins the flusher.
  ~JsonlExporter();

  JsonlExporter(const JsonlExporter&) = delete;
  JsonlExporter& operator=(const JsonlExporter&) = delete;

  bool ok() const { return ok_; }

  /// Append one event line. Safe from any thread.
  void event(const std::string& name, const Fields& fields);

  /// Append one snapshot line of the global Registry right now.
  void snapshot_now(const std::string& reason);

 private:
  void write_line(const std::string& line);
  std::int64_t elapsed_ms() const;
  void flusher_loop();

  std::ofstream out_;
  bool ok_ = false;
  std::chrono::steady_clock::time_point start_;
  std::mutex out_mu_;
  std::uint64_t snapshot_seq_ = 0;

  std::chrono::milliseconds period_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread flusher_;
};

/// Install a process-global exporter so instrumented layers can emit
/// milestone events without plumbing a handle through every call chain.
/// Passing ownership; replaces (and finalizes) any previous exporter.
void install_exporter(std::unique_ptr<JsonlExporter> exporter);

/// Flush the final snapshot and close the global exporter (no-op when
/// none is installed).
void uninstall_exporter();

/// Currently installed exporter, or nullptr.
JsonlExporter* exporter() noexcept;

/// Emit an event through the global exporter; no-op when telemetry is
/// disabled or no exporter is installed.
void emit(const std::string& name, const Fields& fields);

/// Convenience: enable telemetry and install a JSONL exporter writing to
/// `path`. Returns false (and installs nothing) if the file cannot be
/// opened.
bool enable_to_file(const std::string& path);

}  // namespace asyncmac::telemetry
