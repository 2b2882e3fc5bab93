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
// layout. Cohorts that cannot take the fast path (other protocols,
// variable-length slot policies, checkpoint sinks, mismatched lane
// configurations) fall back transparently to one scalar Engine per lane;
// lanes that hit a runtime slow path (a StopCondition predicate, or the
// caller asking for engine(k)) detach to a scalar Engine via the snapshot
// path and continue bit-for-bit. Tests pin byte-identity of lane
// snapshots against scalar runs across the golden corpus, generated
// scenarios and randomized K/seed sweeps.
#pragma once

#include <cstdint>
#include <functional>
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

/// Pure factory for one lane's materials. MUST be callable repeatedly and
/// return independent, identically configured instances each time: the
/// cohort consumes one build at construction (to decide eligibility and
/// seed the lane) and builds again whenever the lane detaches to a scalar
/// Engine (the fresh engine is then overwritten via load_state).
using LaneBuilder = std::function<LaneMaterials()>;

/// The lockstep fast path's test of one lane on its own: the lane-ized
/// protocol at every station, every slot length fixed within [1, R]
/// units, a slot policy whose save_state writes nothing, and no
/// checkpointing. Returns the per-station slot lengths, or an empty
/// vector when the lane cannot run in lockstep. A cohort runs in
/// lockstep when every lane passes and all lanes agree on their shared
/// configuration and lengths; the grid planner (analysis/grid.h) asks it
/// of one lane per block to size its work units.
std::vector<Tick> lockstep_slot_lengths(const LaneMaterials& m);

class CohortEngine {
 public:
  /// One builder per lane; at least one lane. Decides the lockstep fast
  /// path for the whole cohort at construction (see lockstep()); cohorts
  /// that do not qualify hold one scalar Engine per lane instead and
  /// behave identically, just without the batching win.
  explicit CohortEngine(std::vector<LaneBuilder> builders);
  ~CohortEngine();

  CohortEngine(const CohortEngine&) = delete;
  CohortEngine& operator=(const CohortEngine&) = delete;

  std::size_t lanes() const noexcept;

  /// True when the cohort runs the batched SoA lockstep loop; false for
  /// the one-scalar-Engine-per-lane fallback.
  bool lockstep() const noexcept;

  /// True when a lockstep lane has left the shared schedule because its
  /// stop condition triggered (its state is frozen at that point; reading
  /// results needs no materialization). Always false for detached or
  /// fallback lanes — those are live scalar engines.
  bool retired(std::size_t lane) const;

  /// Advance every lane until its stop condition triggers (the broadcast
  /// overload applies one condition to all lanes). Mirrors Engine::run
  /// per lane: a lane's stop is evaluated before every one of its slot-end
  /// events, and its telemetry is flushed when it stops. Lanes with a
  /// StopCondition::predicate detach to scalar engines first (the
  /// predicate observes an Engine), as do previously retired lanes that
  /// are run again — the shared schedule has moved on without them.
  void run(const StopCondition& stop);
  void run(const std::vector<StopCondition>& stops);

  /// Per-lane results, O(1), valid in every lane state.
  const metrics::RunStats& stats(std::size_t lane) const;
  const channel::LedgerStats& channel_stats(std::size_t lane) const;
  /// Per-lane energy slot counts (all-zero unless cfg.energy.enabled).
  const energy::EnergyMeter& energy_meter(std::size_t lane) const;

  /// Serialize lane `lane` exactly as the equivalent scalar
  /// Engine::save_state would — THE byte-identity oracle (tests and
  /// verify::Campaign diff this against real scalar runs), and the
  /// transport detachment rides on.
  void save_lane_state(std::size_t lane, snapshot::Writer& w) const;

  /// Detach lane `lane` to a scalar Engine (built via the lane's builder,
  /// then overwritten with the lane snapshot) and return it. Idempotent —
  /// the engine is cached and subsequent run() calls advance it. The
  /// returned reference lives as long as the cohort.
  Engine& engine(std::size_t lane);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace asyncmac::sim
