// asyncmac/verify/repro.h
//
// JSON repro files for fuzzing counterexamples and pinned corpus cases.
// A repro bundles a Scenario (everything needed to rebuild the run), the
// violation the campaign observed (empty for a pinned-clean corpus
// entry) and the expected serialized trace (trace/serialize text,
// embedded as a JSON string). Replaying re-runs the scenario, re-checks
// every invariant and — when a trace is embedded — requires the current
// build to regenerate it byte-for-byte.
//
// Repro files come back in from disk, so malformed input must fail
// cleanly (std::invalid_argument, never a crash). util/json holds the
// grammar and the string escaper; this module keeps only the schema:
// which keys, kinds and ranges a repro may carry.
#pragma once

#include <string>

#include "trace/invariants.h"
#include "verify/scenario.h"

namespace asyncmac::verify {

struct Repro {
  Scenario scenario;
  std::string violation;   ///< empty for pinned-clean corpus entries
  std::string trace_text;  ///< expected serialized trace (may be empty)

  bool operator==(const Repro&) const = default;
};

/// Serialize with deterministic key order and formatting (repro output
/// is part of the campaign's jobs-determinism contract). Throws
/// std::invalid_argument when the text would not parse back to `repro`:
/// the schema does not carry RunSpec's recording and pacing fields, so a
/// scenario that changes one of them has no repro.
std::string to_json(const Repro& repro);

/// Parse a repro file; throws std::invalid_argument on malformed JSON,
/// missing fields or out-of-range values.
Repro parse_repro_json(const std::string& text);

/// Run the scenario and capture its trace into a repro.
Repro make_repro(const Scenario& s, const std::string& violation);

struct ReplayOutcome {
  trace::CheckResult case_result;  ///< invariants on the fresh run
  bool trace_matches = true;       ///< vs embedded trace, when present
  /// True when the fresh run matches what the repro recorded: a clean
  /// repro replays clean, a violation repro fails again, and any
  /// embedded trace regenerates byte-identically.
  bool reproduced = false;
};

ReplayOutcome replay_repro(const Repro& repro);

}  // namespace asyncmac::verify
