// asyncmac/verify/scenario.h
//
// Self-contained, serializable descriptions of whole simulator runs, and
// a deterministic generator over them. A Scenario pins every degree of
// freedom of an execution — protocol, topology (n, R), the adversarial
// slot-length schedule, the injection adversary and the engine seed — so
// that one plain-data record replays a run bit-for-bit on any machine.
//
// ScenarioGen searches adversary space: it derives each case from a
// single 64-bit seed through a splittable PRNG (one child generator per
// decision group), so a failing case replays from its printed seed alone
// and adding draws to one group never perturbs another. This is the
// entry point of the fuzzing campaign (see verify/campaign.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/run_spec.h"
#include "sim/engine.h"

namespace asyncmac::verify {

/// A RunSpec plus the generator seed it came from. Every case records its
/// trace and keeps the full channel history: the oracles replay the
/// trace, and the differential oracle cross-checks the engine's pruned
/// and archived ledger against a naive reference (which is what exercises
/// prune-with-history). The other recording and pacing fields keep
/// RunSpec's defaults. The repro JSON carries none of these fields, so
/// verify::to_json refuses a Scenario that changes one of them.
struct Scenario : analysis::RunSpec {
  Scenario() {
    n = 2;
    horizon_units = 100;
    record_trace = true;
    keep_channel_history = true;
  }

  /// Generator seed this scenario was derived from (0 = handwritten).
  std::uint64_t case_seed = 0;

  bool operator==(const Scenario&) const = default;

  /// One-line human-readable summary (deterministic; used in campaign
  /// output, so its format is part of the jobs-determinism contract).
  std::string describe() const;
};

/// Build the scenario's engine (analysis::materials) and run it to its
/// horizon. Throws std::invalid_argument when the scenario turns trace
/// recording or the channel history off.
std::unique_ptr<sim::Engine> run_scenario(const Scenario& s);

/// The protocols the generator samples from: the paper's core algorithms
/// plus every queue-driven baseline.
const std::vector<std::string>& default_protocol_pool();

/// Derive the full scenario a case seed denotes — a pure function of the
/// seed, shared by generation, replay and shrinking.
Scenario scenario_from_seed(std::uint64_t case_seed);

/// As above but restricted to a protocol subset (used by campaign configs
/// that target specific protocols). `pool` must be non-empty.
Scenario scenario_from_seed(std::uint64_t case_seed,
                            const std::vector<std::string>& pool);

class ScenarioGen {
 public:
  /// `campaign_seed` identifies the whole campaign; case i's seed is a
  /// SplitMix64 mix of (campaign_seed, i), so case seeds are decorrelated
  /// and each one regenerates its scenario without the campaign context.
  explicit ScenarioGen(std::uint64_t campaign_seed,
                       std::vector<std::string> pool = {});

  /// Seed of 0-based case `index`.
  std::uint64_t case_seed(std::uint64_t index) const;

  /// Scenario of 0-based case `index`.
  Scenario generate(std::uint64_t index) const;

  const std::vector<std::string>& pool() const { return pool_; }

 private:
  std::uint64_t campaign_seed_;
  std::vector<std::string> pool_;
};

}  // namespace asyncmac::verify
