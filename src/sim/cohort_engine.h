// asyncmac/sim/cohort_engine.h
//
// Batched lockstep execution of K independent replicas — the engine under
// million-seed Monte Carlo sweeps (ROADMAP: "Batched Monte Carlo engine").
//
// A *cohort* is K replicas that share topology (n, R), protocol, slot
// policy and recording configuration but differ in seeds and injector
// parameters — exactly the shape of a seed-replicated grid cell in
// analysis::run_grid. When every station's slot length is fixed (the
// policy's fixed_length() is nonzero for all stations, e.g. the "sync",
// "max" and "perstation" adversaries) the slot-end event sequence is the
// SAME for every replica, so one scheduler heap and one per-station slot
// schedule drive all K lanes: each event is processed by a plain loop over
// the active lanes whose per-station protocol scalars live in
// structure-of-arrays form (station-major, lane-minor — the K lane values
// of one station are contiguous). That amortizes the heap, the event
// bookkeeping and every virtual dispatch of the scalar engine across K
// replicas; docs/PERFORMANCE.md has the measured speedups.
//
// The lockstep fast path currently lane-izes the CA-ARRoW automaton (the
// paper's collision-free workhorse protocol — the one the committed
// trajectory benches run). Everything per-lane that is not a hot scalar
// stays a real object with the scalar engine's exact semantics: the
// channel Ledger, the metrics Collector, trace/delivery recording and the
// live InjectionPolicy (any injection adversary works — polls go through
// a per-lane EngineView at the shared event times, under the same
// next_arrival_hint skip-ahead contract as the scalar engine).
//
// Determinism contract — byte-identity by construction: a lane's state is
// at all times exactly the state the scalar Engine would have after the
// same events, and save_lane_state() writes Engine::save_state's byte
// layout. A cohort is lockstep or nothing: the constructor refuses lanes
// the lockstep path cannot run (lockstep_eligible — other protocols,
// variable-length slot policies, checkpointing, mismatched lane
// configurations), and callers run those on scalar Engines
// (analysis::run_grid_cells runs one per distinct run). A cohort runs
// once, to one stop per lane, and a lane whose stop fires stays retired
// (frozen). Tests pin byte-identity of lane snapshots against scalar runs
// across the golden corpus, generated scenarios and randomized K/seed
// sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"

namespace asyncmac::sim {

/// Everything needed to construct one lane's scalar Engine (the exact
/// argument list of the Engine constructor).
struct LaneMaterials {
  EngineConfig cfg;
  std::vector<std::unique_ptr<Protocol>> protocols;
  std::unique_ptr<SlotPolicy> slot_policy;
  std::unique_ptr<InjectionPolicy> injection;  ///< may be null
};

/// The lockstep fast path's test of one lane on its own: the lane-ized
/// protocol at every station, every slot length fixed within [1, R]
/// units, a slot policy whose save_state writes nothing, and no
/// checkpointing. Returns the per-station slot lengths, or an empty
/// vector when the lane cannot run in lockstep. The grid planner
/// (analysis/grid.h) asks it of one lane per block to size its work
/// units.
std::vector<Tick> lockstep_slot_lengths(const LaneMaterials& m);

/// The cohort test: at least one lane, every lane passes
/// lockstep_slot_lengths, and all lanes agree on the shared configuration
/// (n, R, recording flags, control messages, prune interval, channel
/// variant, energy model) and on every station's slot length — that is
/// what makes the event schedule shareable. Seeds and injectors are free.
/// CohortEngine accepts exactly the lanes this accepts.
bool lockstep_eligible(const std::vector<LaneMaterials>& lanes);

class CohortEngine {
 public:
  /// One lane per materials entry. Throws std::invalid_argument unless
  /// lockstep_eligible(lanes).
  explicit CohortEngine(std::vector<LaneMaterials> lanes);
  ~CohortEngine();

  CohortEngine(const CohortEngine&) = delete;
  CohortEngine& operator=(const CohortEngine&) = delete;

  std::size_t lanes() const noexcept;

  /// True once the lane's stop condition has triggered: it has left the
  /// shared schedule, and its state is frozen at that point.
  bool retired(std::size_t lane) const;

  /// Advance every lane until its stop condition triggers (the broadcast
  /// overload applies one condition to all lanes). Mirrors Engine::run
  /// per lane: a lane's stop is evaluated before every one of its slot-end
  /// events, and its telemetry is flushed when it stops. Throws
  /// std::invalid_argument on a second call (retired lanes cannot rejoin
  /// a schedule that moved on without them) and on a stop with a
  /// StopCondition::predicate (a predicate observes a scalar Engine).
  void run(const StopCondition& stop);
  void run(const std::vector<StopCondition>& stops);

  /// Per-lane results, O(1), valid in every lane state.
  const metrics::RunStats& stats(std::size_t lane) const;
  const channel::LedgerStats& channel_stats(std::size_t lane) const;
  /// Per-lane energy slot counts (all-zero unless cfg.energy.enabled).
  const energy::EnergyMeter& energy_meter(std::size_t lane) const;

  /// Serialize lane `lane` exactly as the equivalent scalar
  /// Engine::save_state would — THE byte-identity oracle (tests and
  /// verify::Campaign diff this against real scalar runs).
  void save_lane_state(std::size_t lane, snapshot::Writer& w) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace asyncmac::sim
