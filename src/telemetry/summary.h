// asyncmac/telemetry/summary.h
//
// Reader side of the JSONL telemetry stream: a summarizer that parses
// every line with util/json, checks it against the line schema and folds
// the stream into a human-readable digest — top counters, gauge
// high-water marks, timer histograms, and per-name event counts.
// `asyncmac_cli stats` is a thin wrapper over this, and CI uses it to
// validate the artifact a smoke run produced.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/registry.h"

namespace asyncmac::telemetry {

/// Digest of one telemetry JSONL stream.
struct JsonlSummary {
  std::uint64_t lines = 0;
  std::uint64_t meta_lines = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t events = 0;
  std::int64_t span_ms = 0;  ///< largest t_ms observed
  std::map<std::string, std::uint64_t> event_counts;  ///< by event name
  // From the last snapshot line (empty when the stream has none).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, Snapshot::TimerStats>> timers;
};

/// Parse and fold a whole stream. Every line must be a valid JSON object
/// with a known "type"; throws std::invalid_argument (with the line
/// number) otherwise. Blank lines are permitted and ignored.
JsonlSummary summarize_stream(std::istream& in);

/// Render the digest: top `top` counters by value (all when 0), gauges,
/// timer summaries, event tallies.
std::string render_summary(const JsonlSummary& summary, std::size_t top = 20);

}  // namespace asyncmac::telemetry
