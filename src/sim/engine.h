// asyncmac/sim/engine.h
//
// Discrete-event executor of the partially asynchronous MAC model.
//
// The engine owns: one StationContext + Protocol per station, the channel
// transmission Ledger, the adversarial SlotPolicy and InjectionPolicy, a
// metrics Collector and an optional trace Recorder. It advances slot-end
// events in (time, station-id) order, which makes every run bit-for-bit
// deterministic for a fixed configuration and seed.
//
// Hot-loop structure (see docs/PERFORMANCE.md for measurements):
//  * Exactly n slot-end events are ever pending — one per station, since
//    a station always has exactly one committed slot. The scheduler is
//    therefore a winner tree over one leaf per station (sim/event_heap.h):
//    begin_slot re-keys the station's leaf and replays its log2 n matches
//    to the root, the same fixed path for every event, instead of
//    push/pop churn on a priority queue. The (end, station) order is
//    identical to the previous std::priority_queue scheduler, so traces
//    are byte-for-byte unchanged.
//  * Injection polling skips ahead: after each poll the InjectionPolicy
//    returns a next_arrival_hint, and polls strictly before the hint are
//    skipped entirely (the hint contract in sim/injection.h makes this
//    exact, not approximate). Workloads with sparse arrivals no longer
//    pay a virtual poll on every slot end.
//  * Per-step telemetry is accumulated in plain counters and flushed to
//    the atomic instruments at prune cadence / run end / destruction, so
//    the innermost path performs no atomic operations for telemetry.
//
// Dense path (sim/engine_dense.cpp). When every station has one fixed
// slot length of its own, in any mix (the `sync`, `max` and `perstation`
// policies at any R) and one hyperperiod's events fit a fixed cap, the
// constructor marks the run dense(), whatever the protocols. Its slot-end
// events then repeat with the period P, the lcm of the lengths, and run()
// — untraced, with no stop predicate — takes a loop built on that: a
// cursor over a table of one hyperperiod's (offset, station) events,
// built by the first such run (a uniform schedule's is one round of n
// entries), instead of the winner tree, and no slot-policy call or
// length check per event. Each station steps through its own automaton.
// When every station runs CA-ARRoW (Protocol::ca_arrow_automaton()), the
// loop steps each protocol's core::CaArrowAutomaton in place instead of
// calling next_action, and charges whole runs of listening stations that
// end one silent or memoized slot in one batch. It writes everything
// back before run() returns, so save_state, protocol(), step() and the
// next run() see exactly the state the general path would have left.
//
// Correctness notes (why event order gives exact channel semantics):
//  * A transmission is registered at its slot's *start*, i.e. when the
//    preceding slot-end event of the same station is processed; since
//    events are processed in non-decreasing time order, the ledger sees
//    begins in non-decreasing order.
//  * Feedback for a slot ending at time t depends only on transmissions
//    with begin < t (intervals are half-open), all of which are already in
//    the ledger when the event at t is handled — including ties at t,
//    because a transmission beginning exactly at t cannot overlap [.., t).
//  * Success of a transmission ending at time e <= t cannot be affected by
//    transmissions that begin at time >= t, so lazy finalization is exact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channel/ledger.h"
#include "energy/meter.h"
#include "metrics/collector.h"
#include "sim/event_heap.h"
#include "sim/injection.h"
#include "sim/protocol.h"
#include "sim/slot_policy.h"
#include "sim/station.h"
#include "trace/recorder.h"
#include "util/types.h"

namespace asyncmac::sim {

struct EngineConfig {
  std::uint32_t n = 0;        ///< number of stations (IDs 1..n)
  std::uint32_t bound_r = 1;  ///< the known asynchrony bound R >= 1
  std::uint64_t seed = 1;     ///< master seed (per-station RNGs derive)
  bool keep_channel_history = false;  ///< retain all transmissions
  bool record_trace = false;          ///< record per-slot trace
  bool record_deliveries = false;     ///< keep a delivery log (validator)
  /// When false, a kTransmitControl action is a protocol bug (model rows
  /// of Table I that forbid control messages).
  bool allow_control = true;
  /// Slot-end events between ledger prunes (and batched-telemetry
  /// flushes). Must be >= 1. The default balances prune work against live
  /// window growth (see docs/PERFORMANCE.md, "Choosing prune_interval").
  std::uint64_t prune_interval = 4096;
  /// k-restrained channel (channel/transmission.h, arXiv 1808.02216): at
  /// most `restrained.k` overlapping transmissions are admitted on air;
  /// excess ones are jammed or rejected. k == 0 keeps the classic
  /// unrestrained channel and bypasses all admission machinery.
  channel::RestrainedSpec restrained;
  /// Per-station energy accounting (energy/model.h, docs/ENERGY.md).
  /// Observation-only: enabling it changes no simulation byte — stats,
  /// trace, feedback and snapshots (minus the gated energy tail) are
  /// identical with it on or off.
  energy::EnergyModel energy;
};

struct StopCondition {
  Tick max_time = kTickInfinity;  ///< stop before events beyond this time
  std::uint64_t max_total_slots = UINT64_MAX;
  /// Optional extra predicate, evaluated after every processed slot end.
  std::function<bool(const class Engine&)> predicate;
};

/// Convenience: a StopCondition that only bounds simulated time.
inline StopCondition until(Tick max_time) {
  StopCondition s;
  s.max_time = max_time;
  return s;
}

/// Realized outcome of one delivered packet (for bucket validation and
/// latency studies).
struct DeliveryRecord {
  PacketSeq seq = 0;
  StationId station = kInvalidStation;
  Tick injected_at = 0;
  Tick declared_cost = 0;
  Tick realized_cost = 0;  ///< actual duration of the delivering slot
  Tick delivered_at = 0;   ///< end time of the delivering slot

  bool operator==(const DeliveryRecord&) const = default;
};

/// Everything needed to construct one Engine: the exact argument list of
/// its constructor (analysis::materials builds it from a RunSpec).
struct EngineMaterials {
  EngineConfig cfg;
  std::vector<std::unique_ptr<Protocol>> protocols;
  std::unique_ptr<SlotPolicy> slot_policy;
  std::unique_ptr<InjectionPolicy> injection;  ///< may be null
};

class Engine final : public EngineView {
 public:
  /// `protocols` must have exactly cfg.n entries (index i drives station
  /// i+1). `injection` may be null for workloads without packet arrivals
  /// (e.g. SST runs where participation is encoded in the protocols).
  Engine(EngineConfig cfg, std::vector<std::unique_ptr<Protocol>> protocols,
         std::unique_ptr<SlotPolicy> slot_policy,
         std::unique_ptr<InjectionPolicy> injection);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Advance the simulation until the stop condition triggers. May be
  /// called repeatedly; state persists across calls. A dense() run that
  /// records no trace and whose stop has no predicate takes the dense
  /// loop; every other run takes the general one, event by event. Both
  /// leave the same state.
  void run(const StopCondition& stop);

  /// True when the constructor chose the dense path: the slot policy's
  /// fixed_length is nonzero and within [1, R] units for every station
  /// (one length or several), and the stations' events in one
  /// hyperperiod number at most kDenseEventCap. Any
  /// protocol set qualifies; the loop steps the CA-ARRoW automata in
  /// place, with the quiet-run batcher, when every station has one.
  bool dense() const noexcept { return dense_period_ != 0; }

  /// Most slot-end events one hyperperiod of a dense() schedule may hold
  /// (the table the first dense run builds); past it the run takes the
  /// general loop. Admits `perstation` at every R <= 10 for n <= 64, and
  /// a uniform schedule up to n = 65,536.
  static constexpr std::uint64_t kDenseEventCap = 65536;

  /// Slot-end events this engine has processed on the dense loop (its
  /// share of the engine.dense_slots counter). Not part of save_state.
  std::uint64_t dense_slots() const noexcept { return dense_slot_count_; }

  /// Process exactly one slot-end event; returns false when the event
  /// queue is empty (cannot happen in normal configurations).
  bool step();

  // ---- EngineView (read-only window for adaptive adversaries) ----
  Tick now() const override { return now_; }
  std::uint32_t n() const override { return cfg_.n; }
  std::uint32_t bound_r() const override { return cfg_.bound_r; }
  std::size_t queue_size(StationId station) const override;
  Tick queue_cost(StationId station) const override;
  const channel::LedgerStats& channel_stats() const override;
  StationId last_successful_station() const override {
    return last_successful_;
  }
  Tick fixed_slot_length(StationId station) const override;

  // ---- Inspection ----
  const metrics::RunStats& stats() const { return metrics_.stats(); }
  const channel::Ledger& ledger() const { return ledger_; }
  const trace::Recorder& trace() const { return trace_; }
  const Protocol& protocol(StationId station) const;
  Protocol& protocol_mut(StationId station);
  const StationContext& context(StationId station) const;
  std::uint64_t station_slots(StationId station) const;
  /// Per-station energy slot counts (all zero unless cfg.energy.enabled).
  const energy::EnergyMeter& energy_meter() const { return meter_; }
  const energy::EnergyModel& energy_model() const { return cfg_.energy; }
  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  /// True when every protocol reports finished() (one-shot tasks).
  bool all_finished() const;

  // ---- Checkpoint/resume ----
  /// The engine never saves itself: snapshot::AutoSaver::run calls run()
  /// in chunks of a fixed slot count and saves between them.
  /// Serialize the complete mutable simulation state: station queues,
  /// RNG streams, protocol state, committed slots, ledger (window and
  /// archive), metrics, trace, delivery log, adversary state and the
  /// engine's own cursors. Configuration (EngineConfig, protocol choice,
  /// policy construction parameters) is NOT included — restoring requires
  /// an Engine built from the identical configuration, whose load_state
  /// then overwrites every mutable field. After load_state the engine
  /// continues bit-for-bit as the saved run would have (telemetry
  /// counters excepted; they are process-global and out of contract).
  /// The batched telemetry deltas are not state: run() flushes them
  /// before it returns, and load_state zeroes them.
  void save_state(snapshot::Writer& w) const;
  /// Throws snapshot::SnapshotError (kMismatch) when the payload was
  /// saved under a different n / R / recording configuration, and
  /// (kCorrupt) on enum bytes or invariants no writer produces.
  void load_state(snapshot::Reader& r);

 private:
  struct StationRuntime {
    StationContext ctx;
    std::unique_ptr<Protocol> protocol;
    SlotIndex slot_index = 0;  // 1-based; 0 = before first slot
    Tick slot_begin = 0;
    Tick slot_end = 0;
    SlotAction action = SlotAction::kListen;

    StationRuntime(StationId id, std::uint32_t n, std::uint32_t r,
                   std::uint64_t seed, std::unique_ptr<Protocol> p)
        : ctx(id, n, r, seed), protocol(std::move(p)) {}
  };

  /// The dense loop's working state and its cursor over the hyperperiod
  /// table (sim/engine_dense.cpp).
  class DenseRun;
  class TableCursor;
  /// One slot-end event of the hyperperiod table: station index `station`
  /// ends a slot at `offset` into the period; `run` counts the entries
  /// from this one on that end the same slot (same offset and length).
  struct DenseEvent {
    Tick offset;
    std::uint32_t station;
    std::uint32_t run;
  };

  void poll_injections(Tick now);
  void begin_slot(StationRuntime& rt, Tick begin, SlotAction action);
  /// begin_slot's two halves that do not depend on the schedule, shared
  /// with the dense loop: a transmit action's model checks, and
  /// registering a transmit slot [begin, end) with the ledger.
  void check_action(const StationContext& ctx, SlotAction action) const;
  void add_transmission(const StationContext& ctx, SlotAction action,
                        Tick begin, Tick end);
  void maybe_prune();
  /// Prune the ledger before `horizon` (the earliest current-slot start)
  /// and flush the batched telemetry: the prune cadence's body.
  void prune(Tick horizon);
  /// Decide dense() (see there): dense_lengths_ and dense_period_.
  void plan_dense();
  /// run() on the dense loop; the first call builds dense_events_. False,
  /// with the engine's state unchanged, when the state is not one the
  /// loop can continue (a snapshot saved under another schedule); run()
  /// then takes the general loop.
  bool run_dense(const StopCondition& stop);
  /// Push the batched per-step telemetry deltas into the global atomic
  /// instruments. Called on the cold path only (prune cadence, run()
  /// exit, destruction); between flushes the global counters lag by at
  /// most prune_interval slots.
  void flush_telemetry();
  StationRuntime& rt(StationId id);
  const StationRuntime& rt(StationId id) const;
  /// The snapshot section: saves from a Writer, loads from a Reader.
  template <typename S, typename Self>
  static void fields(S& s, Self& self);

  EngineConfig cfg_;
  std::vector<StationRuntime> stations_;
  std::unique_ptr<SlotPolicy> slot_policy_;
  std::unique_ptr<InjectionPolicy> injection_;
  channel::Ledger ledger_;
  metrics::Collector metrics_;
  energy::EnergyMeter meter_;
  trace::Recorder trace_;
  std::vector<DeliveryRecord> deliveries_;

  /// One pending slot-end event per station, re-keyed in place.
  SlotEventHeap events_;

  Tick now_ = 0;
  /// bound_r * kTicksPerUnit, hoisted out of the per-slot length checks.
  Tick max_slot_ticks_ = 0;
  /// Earliest time the next injection poll may be needed (the standing
  /// next_arrival_hint); events strictly before it skip poll_injections.
  Tick next_injection_poll_ = 0;
  Tick last_injection_time_ = 0;
  PacketSeq next_seq_ = 1;
  StationId last_successful_ = kInvalidStation;
  std::uint64_t steps_since_prune_ = 0;
  std::vector<Injection> injection_buffer_;

  // Batched telemetry deltas (plain integers on the hot path; see
  // flush_telemetry).
  std::uint64_t pending_slots_ = 0;
  std::uint64_t pending_deliveries_ = 0;
  std::uint64_t pending_injections_ = 0;
  std::uint64_t pending_polls_skipped_ = 0;

  /// The dense() schedule: each station's fixed slot length (index
  /// station - 1), their lcm P (0: not dense), and one hyperperiod's
  /// events sorted by (offset, station), the winner tree's order (empty
  /// until the first dense run).
  std::vector<Tick> dense_lengths_;
  Tick dense_period_ = 0;
  std::vector<DenseEvent> dense_events_;
  /// dense_slots(): events processed on the dense loop.
  std::uint64_t dense_slot_count_ = 0;
};

}  // namespace asyncmac::sim
