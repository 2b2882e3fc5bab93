#include "sim/cohort_engine.h"

#include <algorithm>

#include "channel/lane_ledger.h"
#include "snapshot/io.h"
#include "snapshot/state.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::sim {

namespace {

// Write-only telemetry instruments (docs/OBSERVABILITY.md), batched like
// the scalar engine's: plain counters on the hot path, flushed at prune
// cadence / run() exit / destruction. "engine.*" names are shared with
// the scalar Engine (the registry resolves by name), so a lockstep lane
// contributes to the same instruments its scalar twin would.
struct CohortTelemetry {
  telemetry::Counter& batches =
      telemetry::Registry::global().counter("cohort.batches");
  telemetry::Counter& lanes_retired =
      telemetry::Registry::global().counter("cohort.lanes_retired");
  telemetry::Counter& engine_slots =
      telemetry::Registry::global().counter("engine.slots");
  telemetry::Counter& engine_injections =
      telemetry::Registry::global().counter("engine.injections");
  telemetry::Counter& engine_deliveries =
      telemetry::Registry::global().counter("engine.deliveries");
  telemetry::Counter& engine_prunes =
      telemetry::Registry::global().counter("engine.prunes");
  telemetry::Counter& engine_polls_skipped =
      telemetry::Registry::global().counter("engine.injection_polls_skipped");
  telemetry::Counter& ca_arrow_turns =
      telemetry::Registry::global().counter("core.ca_arrow.turns");

  static CohortTelemetry& get() {
    static CohortTelemetry t;
    return t;
  }
};

// The lane-ized automaton. The cohort identifies it by Protocol::name()
// (no link-time dependency on core), and the state bytes below are the
// exact CaArrowProtocol::save_state layout — core/ca_arrow.cpp carries
// the matching KEEP IN SYNC note.
constexpr const char* kLaneizedProtocol = "CA-ARRoW";

// core::CaArrowProtocol::State values, pinned by its save_state u8.
constexpr std::uint8_t kCaInit = 0;
constexpr std::uint8_t kCaCountdown = 1;
constexpr std::uint8_t kCaDrain = 2;
constexpr std::uint8_t kCaNoise = 3;
constexpr std::uint8_t kCaAwaitSequenceEnd = 4;

}  // namespace

struct CohortEngine::Impl {
  // ---- shared across the cohort ----
  EngineConfig cfg;  ///< shared configuration facets (lane 0's; seeds vary)
  std::uint32_t K = 0;
  Tick max_slot_ticks = 0;
  std::vector<Tick> lengths;  ///< [station-1] fixed slot length, ticks

  // The shared schedule: fixed action-independent lengths make the
  // (end, station) event sequence identical across lanes, so one heap and
  // one per-station slot record drive every lane.
  SlotEventHeap events{1};
  std::vector<SlotIndex> slot_index;
  std::vector<Tick> slot_begin;
  std::vector<Tick> slot_end;
  Tick now = 0;
  std::uint64_t steps_since_prune = 0;

  /// All stations share one fixed slot length (the synchronous adversary).
  /// The heap's (end, station) lexicographic order then degenerates to a
  /// strict round-robin — every round all ends are equal, so ties resolve
  /// in ascending station order — and the scheduler becomes a counter:
  /// the heap (a measurable slice of the shared per-event cost at n=64)
  /// is bypassed entirely, yielding the exact same event sequence.
  bool uniform = false;
  StationId next_station = 1;

  // ---- per-(station, lane) protocol scalars, SoA ----
  // Index (station-1) * K + lane: station-major so the inner per-event
  // lane loop walks K contiguous entries.
  std::vector<std::uint8_t> ca_state;
  std::vector<std::uint32_t> ca_turn;
  std::vector<std::uint64_t> ca_countdown;
  std::vector<std::uint8_t> ca_heard;
  std::vector<std::uint64_t> ca_turns_taken;
  std::vector<SlotAction> action;
  /// 1 iff the (station, lane) queue is empty — a SoA mirror of
  /// StationContext::queue_empty(), maintained at the only two queue
  /// mutation sites (injection push, delivery pop) so the per-event lane
  /// loop never touches the scattered StationContext objects on the
  /// listen path (512 deque headers at n=64 x K=8 overflow L1).
  std::vector<std::uint8_t> q_empty;

  /// Shared-schedule snapshot frozen when a lane retires mid-run (the
  /// shared arrays keep advancing for the remaining lanes).
  struct Frozen {
    Tick now = 0;
    std::uint64_t steps_since_prune = 0;
    std::vector<SlotIndex> slot_index;
    std::vector<Tick> slot_begin;
    std::vector<Tick> slot_end;
  };

  struct Lane {
    explicit Lane(std::uint32_t n) : metrics(n), meter(n) {}

    // Live per-lane objects with the scalar engine's exact semantics.
    // The channel ledger lives lane-major in Impl::lane_ledger, not here.
    std::vector<StationContext> stations;
    std::unique_ptr<InjectionPolicy> injection;
    metrics::Collector metrics;
    /// Mirrors Engine::meter_; charged eagerly (energy runs are rare
    /// enough that the SoA fold machinery would buy nothing).
    energy::EnergyMeter meter;
    trace::Recorder trace;
    std::vector<DeliveryRecord> deliveries;
    // Engine cursors (per lane — mirror Engine's members).
    Tick next_injection_poll = 0;
    Tick last_injection_time = 0;
    PacketSeq next_seq = 1;
    StationId last_successful = kInvalidStation;
    // Batched telemetry deltas, flushed exactly when the scalar engine
    // would flush its own (prune cadence, lane stop, destruction) so the
    // serialized residue matches byte-for-byte.
    std::uint64_t pending_slots = 0;
    std::uint64_t pending_deliveries = 0;
    std::uint64_t pending_injections = 0;
    std::uint64_t pending_polls_skipped = 0;

    std::unique_ptr<Frozen> frozen;  ///< set when retired
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  /// Raw mirror of `lanes` for the per-event loops: one indirection
  /// instead of two (the unique_ptrs are stable after construction).
  std::vector<Lane*> lane_ptr;
  std::vector<std::uint32_t> active;  ///< lanes still advancing
  bool ran = false;  ///< run() was called (a cohort runs once)

  /// Lane-major SoA channel substrate. One feedback_all call per event
  /// classifies all K lanes over contiguous arrays.
  std::unique_ptr<channel::LaneLedger> lane_ledger;
  std::vector<Feedback> fb_buffer;  ///< feedback_all output, indexed by lane
  bool any_injection = false;  ///< hoisted: phase 1 skips injector-free runs

  // ---- SoA batched RunStats slot counters ----
  // Every active lane processes every event, so the per-lane total_slots
  // delta is one shared scalar; the action split and per-station transmit
  // counts stay per lane. flush_metrics() folds these into each lane's
  // real Collector before ANY RunStats observation (stats() accessor,
  // lane snapshot, stop-gate recompute, prune cadence), so readers see
  // exactly the values K scalar on_slot_end streams would have produced.
  // Unlike the engine.* telemetry pendings these are NOT serialized as
  // distinct fields — Collector state is observed whole — so flushing at
  // any observation point is free of byte-identity concerns.
  std::uint64_t pend_events = 0;                  ///< per-lane total_slots delta
  std::vector<std::uint64_t> pend_station_slots;  ///< [station-1], lane-shared
  std::vector<std::uint64_t> pend_listen;         ///< [lane]
  std::vector<std::uint64_t> pend_tx_packet;      ///< [lane]
  std::vector<std::uint64_t> pend_tx_control;     ///< [lane]
  std::vector<std::uint64_t> pend_station_tx;     ///< [(station-1)*K + lane]

  /// engine.slots telemetry delta shared across active lanes (one
  /// increment per event instead of K). Folded into a lane's own
  /// pending_slots exactly where the scalar engine flushes: prune cadence
  /// zeroes it after folding into every active lane; a retiring lane
  /// takes its share without zeroing (the remaining lanes still own it).
  std::uint64_t pend_slots_shared = 0;

  std::vector<Injection> injection_buffer;

  // Cohort-level batched telemetry.
  std::uint64_t pending_batches = 0;
  std::uint64_t pending_lanes_retired = 0;
  std::uint64_t pending_turns = 0;  ///< core.ca_arrow.turns deltas

  /// Read-only window a lane exposes to its injection adversary —
  /// the lane-local equivalent of the scalar Engine's EngineView.
  struct LaneView final : EngineView {
    const Impl* impl;
    const Lane* lane;
    std::uint32_t k;
    LaneView(const Impl* i, const Lane* l, std::uint32_t lane_idx)
        : impl(i), lane(l), k(lane_idx) {}
    Tick now() const override { return impl->now; }
    std::uint32_t n() const override { return impl->cfg.n; }
    std::uint32_t bound_r() const override { return impl->cfg.bound_r; }
    std::size_t queue_size(StationId station) const override {
      return lane->stations[station - 1].queue_size();
    }
    Tick queue_cost(StationId station) const override {
      return lane->stations[station - 1].queue_cost();
    }
    const channel::LedgerStats& channel_stats() const override {
      return impl->lane_ledger->stats(k);
    }
    StationId last_successful_station() const override {
      return lane->last_successful;
    }
    Tick fixed_slot_length(StationId station) const override {
      return impl->lengths[station - 1];
    }
  };

  std::size_t idx(StationId station, std::uint32_t lane) const {
    return static_cast<std::size_t>(station - 1) * K + lane;
  }

  // ---- the lane-ized CA-ARRoW automaton (port of core/ca_arrow.cpp) ----
  // The automaton steps and the action commitment below are forced inline:
  // they run K times per event inside process_event's lane loop, and at
  // n=64/K=8 the plain call overhead alone is a measurable slice of the
  // per-slot budget (the optimizer declines to inline them on its own).

  [[gnu::always_inline]] inline void ca_advance_turn(std::size_t i) {
    ca_turn[i] = (ca_turn[i] % cfg.n) + 1;
  }

  [[gnu::always_inline]] inline SlotAction ca_begin_phase(std::size_t i,
                                                          StationId id) {
    if (ca_turn[i] == id) {
      ++ca_turns_taken[i];
      ++pending_turns;
      ca_countdown[i] = 2ULL * cfg.bound_r;
      ca_state[i] = kCaCountdown;
    } else {
      ca_heard[i] = 0;
      ca_state[i] = kCaAwaitSequenceEnd;
    }
    return SlotAction::kListen;
  }

  /// next_action(nullopt) — the pre-first-slot decision.
  SlotAction ca_first_action(std::size_t i, StationId id) {
    AM_CHECK(ca_state[i] == kCaInit);
    ca_turn[i] = 1;
    return ca_begin_phase(i, id);
  }

  /// next_action(prev) after a slot ended with feedback `fb`.
  [[gnu::always_inline]] inline SlotAction ca_next_action(std::size_t i,
                                                          StationId id,
                                                          Feedback fb,
                                                          bool queue_empty) {
    switch (ca_state[i]) {
      case kCaCountdown:
        if (--ca_countdown[i] > 0) return SlotAction::kListen;
        if (queue_empty) {
          ca_state[i] = kCaNoise;
          return SlotAction::kTransmitControl;
        }
        ca_state[i] = kCaDrain;
        return SlotAction::kTransmitPacket;

      case kCaNoise:
        ca_advance_turn(i);
        return ca_begin_phase(i, id);

      case kCaDrain:
        if (!queue_empty) return SlotAction::kTransmitPacket;
        ca_advance_turn(i);
        return ca_begin_phase(i, id);

      case kCaAwaitSequenceEnd:
        if (fb != Feedback::kSilence) {
          ca_heard[i] = 1;
          return SlotAction::kListen;
        }
        if (ca_heard[i]) {
          ca_advance_turn(i);
          return ca_begin_phase(i, id);
        }
        return SlotAction::kListen;

      default:
        AM_CHECK(false);  // kCaInit is unreachable after the first slot
        return SlotAction::kListen;
    }
  }

  // ---- per-lane ports of the scalar engine's step pieces ----

  void poll_lane(std::uint32_t k, Tick t) {
    Lane& L = *lane_ptr[k];
    if (!L.injection) return;
    injection_buffer.clear();
    const LaneView view(this, &L, k);
    L.injection->poll(t, view, injection_buffer);
    for (const Injection& inj : injection_buffer) {
      AM_CHECK_MSG(inj.time <= t, "injection in the future");
      AM_CHECK_MSG(inj.time >= L.last_injection_time,
                   "injection times must be non-decreasing");
      AM_CHECK(inj.station >= 1 && inj.station <= cfg.n);
      AM_CHECK_MSG(inj.cost >= kTicksPerUnit && inj.cost <= max_slot_ticks,
                   "packet cost must lie in [1, R] time units");
      L.last_injection_time = inj.time;
      Packet p;
      p.seq = L.next_seq++;
      p.station = inj.station;
      p.injected_at = inj.time;
      p.cost = inj.cost;
      L.stations[inj.station - 1].push(p);
      q_empty[idx(inj.station, k)] = 0;
      L.metrics.on_injection(inj.station, inj.cost, t);
    }
    L.pending_injections += injection_buffer.size();
  }

  /// The per-lane half of Engine::begin_slot: validity checks, the action
  /// commitment and the ledger registration. The shared half (slot index/
  /// bounds and the heap re-key) runs once per event for all lanes. The
  /// common listen commit touches only the SoA action array — the Lane
  /// object is dereferenced only on the transmit paths.
  [[gnu::always_inline]] inline void lane_commit_action(std::uint32_t k,
                                                        std::size_t i,
                                                        StationId id,
                                                        SlotAction a,
                                                        Tick begin, Tick end) {
    if (a == SlotAction::kTransmitPacket)
      AM_CHECK_MSG(!lane_ptr[k]->stations[id - 1].queue_empty(),
                   "station " << id << " transmits with empty queue");
    if (a == SlotAction::kTransmitControl)
      AM_CHECK_MSG(cfg.allow_control,
                   "control message in a no-control model (station " << id
                                                                     << ")");
    action[i] = a;
    if (is_transmit(a)) {
      channel::Transmission tx;
      tx.station = id;
      tx.begin = begin;
      tx.end = end;
      tx.is_control = (a == SlotAction::kTransmitControl);
      tx.packet =
          tx.is_control ? 0 : lane_ptr[k]->stations[id - 1].front().seq;
      lane_ledger->add(k, tx);
    }
  }

  /// Engine::flush_telemetry for one lane.
  void flush_lane(Lane& L) {
    if ((L.pending_slots | L.pending_deliveries | L.pending_injections |
         L.pending_polls_skipped) == 0)
      return;
    CohortTelemetry& t = CohortTelemetry::get();
    t.engine_slots.add(L.pending_slots);
    t.engine_deliveries.add(L.pending_deliveries);
    t.engine_injections.add(L.pending_injections);
    t.engine_polls_skipped.add(L.pending_polls_skipped);
    L.pending_slots = L.pending_deliveries = L.pending_injections =
        L.pending_polls_skipped = 0;
  }

  /// Fold the SoA slot counters into every active lane's Collector and
  /// zero them. Invariant: since the last zero, every currently-active
  /// lane processed exactly pend_events events (retire() folds before
  /// removing a lane from `active`), so the shared event count and the
  /// lane-shared per-station slot counts apply to each of them verbatim.
  void flush_metrics() {
    if (pend_events == 0) return;
    for (const std::uint32_t k : active) {
      Lane& L = *lane_ptr[k];
      L.metrics.on_slot_batch(pend_events, pend_listen[k], pend_tx_packet[k],
                              pend_tx_control[k]);
      for (std::uint32_t s = 0; s < cfg.n; ++s) {
        const std::size_t i = static_cast<std::size_t>(s) * K + k;
        if ((pend_station_slots[s] | pend_station_tx[i]) != 0)
          L.metrics.on_station_slot_batch(s + 1, pend_station_slots[s],
                                          pend_station_tx[i]);
      }
    }
    pend_events = 0;
    std::fill(pend_station_slots.begin(), pend_station_slots.end(), 0);
    std::fill(pend_listen.begin(), pend_listen.end(), 0);
    std::fill(pend_tx_packet.begin(), pend_tx_packet.end(), 0);
    std::fill(pend_tx_control.begin(), pend_tx_control.end(), 0);
    std::fill(pend_station_tx.begin(), pend_station_tx.end(), 0);
  }

  void flush_cohort_telemetry() {
    if ((pending_batches | pending_lanes_retired | pending_turns) == 0) return;
    CohortTelemetry& t = CohortTelemetry::get();
    t.batches.add(pending_batches);
    t.lanes_retired.add(pending_lanes_retired);
    t.ca_arrow_turns.add(pending_turns);
    pending_batches = pending_lanes_retired = pending_turns = 0;
  }

  /// A lane's stop triggered (mirrors the scalar run() loop exiting):
  /// freeze its view of the shared schedule and flush its telemetry, just
  /// as Engine::run flushes on exit.
  void retire(std::uint32_t k) {
    Lane& L = *lanes[k];
    flush_metrics();  // k still active here: its slot counters land first
    auto fz = std::make_unique<Frozen>();
    fz->now = now;
    fz->steps_since_prune = steps_since_prune;
    fz->slot_index = slot_index;
    fz->slot_begin = slot_begin;
    fz->slot_end = slot_end;
    L.frozen = std::move(fz);
    // Take this lane's share of the shared slot delta without zeroing it —
    // the remaining active lanes processed the same events and still own it.
    L.pending_slots += pend_slots_shared;
    flush_lane(L);
    lane_ledger->flush_telemetry(k);
    ++pending_lanes_retired;
    active.erase(std::find(active.begin(), active.end(), k));
  }

  /// One shared slot-end event, processed for every active lane — the
  /// lockstep mirror of Engine::step (same operations, same order, per
  /// lane; only the schedule bookkeeping is shared).
  /// Time of the next slot-end event without popping it.
  Tick peek_time() const {
    return uniform ? slot_end[next_station - 1] : events.top_time();
  }

  void process_event() {
    StationId id;
    Tick t;
    if (uniform) {
      id = next_station;
      t = slot_end[id - 1];
      next_station = next_station == cfg.n ? 1 : next_station + 1;
    } else {
      t = events.top_time();
      id = events.top_station();
    }
    now = t;
    const std::size_t si = id - 1;
    AM_CHECK(slot_end[si] == t);
    const Tick s_begin = slot_begin[si];
    const SlotIndex ended_index = slot_index[si];
    const Tick len = lengths[si];
    const Tick new_end = t + len;
    const std::size_t base = si * K;

    // Phase 1 — injection polls, per lane (hints differ across seeds).
    // Skipped outright for injector-free cohorts; lanes are independent,
    // so phasing across lanes cannot reorder any single lane's calls.
    if (any_injection) {
      for (const std::uint32_t k : active) {
        Lane& L = *lane_ptr[k];
        if (t >= L.next_injection_poll) {
          poll_lane(k, t);
          L.next_injection_poll = L.injection->next_arrival_hint(t);
        } else if (L.injection) {
          ++L.pending_polls_skipped;
        }
      }
    }

    // Phase 2 — feedback for all K lanes of this slot in one vectorized
    // classification pass over the LaneLedger's contiguous summary arrays.
    // Awaiting-station fast paths — the steady-state shapes on arrow
    // workloads. When every lane of this station sits in
    // kCaAwaitSequenceEnd with a listen committed and no lane is at its
    // sequence-end transition (silence after something heard), the full
    // phase 3 per lane reduces to vectorizable strips: no delivery is
    // possible (a listen never pops a queue), the automaton's only
    // effect is ca_heard |= (fb != silence), the commit re-stores the
    // same listen byte, and the only counter that moves is pend_listen.
    // Only the turn-holder's slots (countdown / noise / drain) and the
    // one-per-turn sequence-end slots fall through to the general loop —
    // ~1 station in n.
    //
    // Tier 1 (quiet rounds): the ledger's inline all-quiet gate plus an
    // await check with heard == 0 — feedback is silence by construction,
    // so the fb_buffer fill, the heard |= strip and the feedback_all
    // call are all skipped; the ledger's pass-0 counters are applied
    // directly. Tier 2 (busy rounds): full feedback_all, then the await
    // check against the actual feedback bytes.
    const bool dense = !cfg.record_trace && active.size() == K;
    bool idle = false;
    if (dense && lane_ledger->all_quiet(s_begin)) {
      std::uint32_t await = 1;
      for (std::uint32_t k = 0; k < K; ++k) {
        const std::size_t i = base + k;
        await &= static_cast<std::uint32_t>(ca_state[i] ==
                                            kCaAwaitSequenceEnd) &
                 static_cast<std::uint32_t>(action[i] == SlotAction::kListen) &
                 static_cast<std::uint32_t>(ca_heard[i] == 0);
      }
      if (await != 0) {
        lane_ledger->apply_all_quiet();
        for (std::uint32_t k = 0; k < K; ++k) ++pend_listen[k];
        if (cfg.energy.enabled)
          for (std::uint32_t k = 0; k < K; ++k)
            lane_ptr[k]->meter.add_idle(id, q_empty[base + k] != 0);
        idle = true;
      }
    }
    if (!idle) {
      lane_ledger->feedback_all(s_begin, t, active, fb_buffer.data());
      if (dense) {
        std::uint32_t await = 1;
        for (std::uint32_t k = 0; k < K; ++k) {
          const std::size_t i = base + k;
          const std::uint32_t heard_something = static_cast<std::uint32_t>(
              fb_buffer[k] != Feedback::kSilence);
          await &= static_cast<std::uint32_t>(ca_state[i] ==
                                              kCaAwaitSequenceEnd) &
                   static_cast<std::uint32_t>(action[i] ==
                                              SlotAction::kListen) &
                   (heard_something |
                    static_cast<std::uint32_t>(ca_heard[i] == 0));
        }
        if (await != 0) {
          for (std::uint32_t k = 0; k < K; ++k)
            ca_heard[base + k] |= static_cast<std::uint8_t>(
                fb_buffer[k] != Feedback::kSilence);
          for (std::uint32_t k = 0; k < K; ++k) ++pend_listen[k];
          if (cfg.energy.enabled)
            for (std::uint32_t k = 0; k < K; ++k)
              lane_ptr[k]->meter.add_idle(id, q_empty[base + k] != 0);
          idle = true;
        }
      }
    }

    // Phase 3 — slot end + next-slot commit per lane. The common listen
    // path touches only the SoA arrays (fb_buffer, action, q_empty, the
    // pend_* counters); the Lane object is dereferenced only on delivery,
    // trace and transmit commits.
    if (!idle) for (const std::uint32_t k : active) {
      const std::size_t i = base + k;
      const Feedback fb = fb_buffer[k];
      const SlotAction act = action[i];
      // Ownership check mirrors the scalar engine: under a reject-mode
      // restrained channel the ack may be another station's (a rejected
      // transmission never reached the medium and cannot mask it).
      if (act == SlotAction::kTransmitPacket && fb == Feedback::kAck &&
          (!cfg.restrained.enabled() ||
           lane_ledger->transmission_successful(k, id, t))) {
        Lane& L = *lane_ptr[k];
        StationContext& ctx = L.stations[si];
        const Packet p = ctx.pop_front();
        q_empty[i] = ctx.queue_empty() ? 1 : 0;
        L.last_successful = id;
        L.metrics.on_delivery(id, p.cost, p.injected_at, t - s_begin, t);
        if (cfg.record_deliveries)
          L.deliveries.push_back({p.seq, id, p.injected_at, p.cost,
                                  t - s_begin, t});
        ++L.pending_deliveries;
      }
      // SoA slot accounting (on_delivery stays eager above; the two
      // touch disjoint RunStats fields, so folding later is exact).
      pend_listen[k] += act == SlotAction::kListen;
      pend_tx_packet[k] += act == SlotAction::kTransmitPacket;
      pend_tx_control[k] += act == SlotAction::kTransmitControl;
      pend_station_tx[i] += is_transmit(act);
      if (cfg.energy.enabled) {
        // Post-delivery queue state, like the scalar engine's billing.
        if (is_transmit(act))
          lane_ptr[k]->meter.add_transmit(id);
        else
          lane_ptr[k]->meter.add_idle(id, q_empty[i] != 0);
      }
      if (cfg.record_trace)
        lane_ptr[k]->trace.record({id, ended_index, s_begin, t, act, fb});

      // (The lane-ized automaton ignores SlotResult::delivered.)
      const SlotAction next = ca_next_action(i, id, fb, q_empty[i] != 0);
      lane_commit_action(k, i, id, next, t, new_end);
    }
    ++pend_events;
    ++pend_station_slots[si];
    ++pend_slots_shared;

    // Shared schedule half of begin_slot, once for all lanes.
    ++slot_index[si];
    slot_begin[si] = t;
    slot_end[si] = new_end;
    if (!uniform) events.update(id, new_end);
    ++pending_batches;

    // Prune cadence — shared counter: every active lane has processed
    // exactly the events the counter counts, so it equals each lane's
    // scalar steps_since_prune_.
    if (++steps_since_prune >= cfg.prune_interval) do_prune();
  }

  /// The shared prune cadence body (reached from the scalar per-event
  /// path and from batched quiet runs, at exactly the event counts where
  /// every lane's scalar engine would prune).
  void do_prune() {
    steps_since_prune = 0;
    Tick horizon = kTickInfinity;
    for (std::uint32_t s = 0; s < cfg.n; ++s)
      horizon = std::min(horizon, slot_begin[s]);
    CohortTelemetry::get().engine_prunes.add(active.size());
    flush_metrics();
    for (const std::uint32_t k : active) {
      lane_ledger->prune_before(k, horizon);
      lane_ptr[k]->pending_slots += pend_slots_shared;
      flush_lane(*lane_ptr[k]);
    }
    pend_slots_shared = 0;
    flush_cohort_telemetry();
  }

  /// Batched quiet-run fast path for the uniform (synchronous) schedule.
  ///
  /// Within one uniform round every still-unprocessed station's event
  /// shares the same slot [s_begin, t): the round advances in ascending
  /// station order and nothing a listening station does moves the
  /// schedule. If additionally (a) every lane's channel is all-quiet for
  /// [s_begin, t) — silence feedback via the O(1) fast path, and a
  /// listen commit cannot change that, (b) no lane's injector poll is
  /// due at t (one check covers the whole run: t is constant), and (c)
  /// a consecutive range of stations from the round cursor holds every
  /// lane in kCaAwaitSequenceEnd + committed listen + nothing heard,
  /// then each of those events is the idle no-op of process_event's
  /// fast path, and m of them collapse to `+= m` strips over the SoA
  /// counters plus one unit-stride pass over the m per-station slot
  /// records. The await scan itself is a contiguous byte sweep: station
  /// si's K lanes live at [si*K, si*K + K) in ca_state / action /
  /// ca_heard, so consecutive stations form one flat range.
  ///
  /// Byte-identity: every touched quantity advances by exactly the sum
  /// of the per-event deltas process_event would have applied, and no
  /// observation point (stop gate, prune cadence, retire, snapshot) can
  /// fire mid-run — `stop_budget` caps the run at the next stop
  /// trigger and the prune cap lands the cadence on the exact event.
  ///
  /// Returns the number of events processed (0: caller must take the
  /// scalar path).
  std::uint64_t process_quiet_run(std::uint64_t stop_budget) {
    if (!uniform || cfg.record_trace || active.size() != K) return 0;
    const std::size_t si0 = next_station - 1;
    const Tick t = slot_end[si0];
    const Tick s_begin = slot_begin[si0];
    // Classify the round's channel for all lanes at once. Quiet: silence
    // in every lane via the O(1) fast path. Memo: every lane replays its
    // memoized feedback for this exact [s_begin, t) — the shape of a busy
    // uniform round after its first event paid the seek-and-scan. Either
    // way the per-lane feedback byte is a run constant: heard_mask[k] is
    // 1 iff lane k hears something (so its awaiting stations must latch
    // ca_heard).
    const bool quiet = lane_ledger->all_quiet(s_begin);
    if (!quiet && !lane_ledger->all_memo(s_begin, t)) return 0;
    if (any_injection) {
      for (const std::uint32_t k : active)
        if (t >= lane_ptr[k]->next_injection_poll) return 0;
    }
    std::uint64_t cap = cfg.n - si0;  // stations left in this round
    cap = std::min(cap, cfg.prune_interval - steps_since_prune);
    cap = std::min(cap, stop_budget);
    std::uint64_t m = 0;
    if (quiet) {
      // Quiet rounds batch awaiting stations through silence feedback
      // REGARDLESS of ca_heard: a lane that heard nothing idles, a lane
      // with ca_heard set is at its sequence end and advances the turn —
      // ca_advance_turn + ca_begin_phase as branchless per-lane selects
      // (every store writes the scalar path's exact value, which for
      // non-advancing lanes is the value already there). This covers the
      // round after every noise burst, where all n-1 awaiting stations
      // advance their local turn counters at once.
      const std::uint64_t fresh_countdown = 2ULL * cfg.bound_r;
      while (m < cap) {
        const std::size_t b = (si0 + m) * K;
        std::uint32_t ok = 1;
        for (std::uint32_t k = 0; k < K; ++k)
          ok &= static_cast<std::uint32_t>(ca_state[b + k] ==
                                           kCaAwaitSequenceEnd) &
                static_cast<std::uint32_t>(action[b + k] ==
                                           SlotAction::kListen);
        if (ok == 0) break;
        const std::uint32_t id = static_cast<std::uint32_t>(si0 + m + 1);
        std::uint64_t took = 0;
        for (std::uint32_t k = 0; k < K; ++k) {
          const std::uint32_t adv = ca_heard[b + k];  // 0 or 1
          const std::uint32_t turn = ca_turn[b + k];
          const std::uint32_t stepped = turn == cfg.n ? 1u : turn + 1u;
          const std::uint32_t new_turn = adv != 0 ? stepped : turn;
          const std::uint32_t my =
              adv & static_cast<std::uint32_t>(new_turn == id);
          ca_turn[b + k] = new_turn;
          ca_state[b + k] =
              my != 0 ? kCaCountdown : kCaAwaitSequenceEnd;
          ca_countdown[b + k] =
              my != 0 ? fresh_countdown : ca_countdown[b + k];
          ca_turns_taken[b + k] += my;
          ca_heard[b + k] = static_cast<std::uint8_t>(my != 0 ? 1u : 0u);
          took += my;
        }
        pending_turns += took;
        ++m;
      }
    } else {
      // Memo rounds: the per-lane feedback byte is a run constant, so an
      // awaiting station's only update is latching ca_heard. A lane that
      // hears silence from its memo must not be at its sequence end
      // (heard already set) — that transition needs the general path.
      std::uint8_t heard_mask[64];
      std::uint8_t* mask =
          K <= 64 ? heard_mask
                  : reinterpret_cast<std::uint8_t*>(fb_buffer.data());
      for (std::uint32_t k = 0; k < K; ++k)
        mask[k] = static_cast<std::uint8_t>(
            lane_ledger->memo_feedback(k) !=
            static_cast<std::uint8_t>(Feedback::kSilence));
      while (m < cap) {
        const std::size_t b = (si0 + m) * K;
        std::uint32_t ok = 1;
        for (std::uint32_t k = 0; k < K; ++k)
          ok &= static_cast<std::uint32_t>(ca_state[b + k] ==
                                           kCaAwaitSequenceEnd) &
                static_cast<std::uint32_t>(action[b + k] ==
                                           SlotAction::kListen) &
                (static_cast<std::uint32_t>(mask[k]) |
                 static_cast<std::uint32_t>(ca_heard[b + k] == 0));
        if (ok == 0) break;
        for (std::uint32_t k = 0; k < K; ++k) ca_heard[b + k] |= mask[k];
        ++m;
      }
    }
    if (m == 0) return 0;

    const Tick new_end = t + lengths[si0];  // uniform: one shared length
    for (std::size_t si = si0; si < si0 + m; ++si) {
      ++slot_index[si];
      slot_begin[si] = t;
      slot_end[si] = new_end;
      ++pend_station_slots[si];
    }
    now = t;
    next_station = si0 + m == cfg.n
                       ? 1
                       : static_cast<StationId>(next_station + m);
    if (quiet)
      lane_ledger->apply_all_quiet(m);
    else
      lane_ledger->apply_all_memo(m);
    for (std::uint32_t k = 0; k < K; ++k) pend_listen[k] += m;
    if (cfg.energy.enabled) {
      // One listen slot per (station, lane) pair in the run; queues are
      // untouched in a quiet run (no polls due, listens cannot deliver),
      // so q_empty is exactly the scalar engine's post-slot state.
      for (std::size_t si = si0; si < si0 + m; ++si)
        for (std::uint32_t k = 0; k < K; ++k)
          lane_ptr[k]->meter.add_idle(static_cast<StationId>(si + 1),
                                      q_empty[si * K + k] != 0);
    }
    if (any_injection) {
      for (const std::uint32_t k : active)
        if (lane_ptr[k]->injection)
          lane_ptr[k]->pending_polls_skipped += m;
    }
    pend_events += m;
    pend_slots_shared += m;
    pending_batches += m;
    steps_since_prune += m;
    if (steps_since_prune >= cfg.prune_interval) do_prune();
    return m;
  }

  // ---- snapshot ----

  /// Engine::save_state's exact byte layout, written from lane state.
  /// KEEP IN SYNC with sim/engine.cpp (the note there points back here).
  void save_lane_state(std::size_t k, snapshot::Writer& w) {
    const Lane& L = *lanes[k];
    // Fold the SoA slot counters in first: Collector bytes must match the
    // scalar engine's exactly.
    flush_metrics();
    const Frozen* fz = L.frozen.get();
    const std::vector<SlotIndex>& sidx = fz ? fz->slot_index : slot_index;
    const std::vector<Tick>& sbeg = fz ? fz->slot_begin : slot_begin;
    const std::vector<Tick>& send = fz ? fz->slot_end : slot_end;
    const Tick lane_now = fz ? fz->now : now;
    const std::uint64_t lane_steps =
        fz ? fz->steps_since_prune : steps_since_prune;

    w.u32(cfg.n);
    w.u32(cfg.bound_r);
    w.boolean(cfg.keep_channel_history);
    w.boolean(cfg.record_trace);
    w.boolean(cfg.record_deliveries);
    w.boolean(cfg.allow_control);

    for (std::uint32_t s = 0; s < cfg.n; ++s) {
      const StationContext& ctx = L.stations[s];
      w.u64(ctx.queue_.size());
      for (const Packet& p : ctx.queue_) {
        w.u64(p.seq);
        w.u32(p.station);
        w.i64(p.injected_at);
        w.i64(p.cost);
      }
      w.i64(ctx.queue_cost_);
      snapshot::save_rng(w, ctx.rng_);
      w.u64(sidx[s]);
      w.i64(sbeg[s]);
      w.i64(send[s]);
      const std::size_t i = static_cast<std::size_t>(s) * K + k;
      w.u8(static_cast<std::uint8_t>(action[i]));
      // CaArrowProtocol::save_state's field order (core/ca_arrow.cpp).
      w.u8(ca_state[i]);
      w.u32(ca_turn[i]);
      w.u64(ca_countdown[i]);
      w.boolean(ca_heard[i] != 0);
      w.u64(ca_turns_taken[i]);
    }

    // Slot policy: eligibility requires a policy whose save_state writes
    // nothing (probed at construction), so this spot is exactly empty.
    w.boolean(L.injection != nullptr);
    if (L.injection) L.injection->save_state(w);

    lane_ledger->save_state(static_cast<std::uint32_t>(k), w);
    L.metrics.save_state(w);

    const auto& slots = L.trace.slots();
    w.u64(slots.size());
    for (const trace::SlotRecord& rec : slots) {
      w.u32(rec.station);
      w.u64(rec.index);
      w.i64(rec.begin);
      w.i64(rec.end);
      w.u8(static_cast<std::uint8_t>(rec.action));
      w.u8(static_cast<std::uint8_t>(rec.feedback));
    }

    w.u64(L.deliveries.size());
    for (const DeliveryRecord& d : L.deliveries) {
      w.u64(d.seq);
      w.u32(d.station);
      w.i64(d.injected_at);
      w.i64(d.declared_cost);
      w.i64(d.realized_cost);
      w.i64(d.delivered_at);
    }

    w.i64(lane_now);
    w.i64(L.next_injection_poll);
    w.i64(L.last_injection_time);
    w.u64(L.next_seq);
    w.u32(L.last_successful);
    w.u64(lane_steps);
    w.u64(0);  // steps_since_checkpoint_ (checkpointing is ineligible)
    // An active lockstep lane's share of the shared slot delta rides in
    // pend_slots_shared; a frozen lane took its share at retirement.
    w.u64(fz ? L.pending_slots : L.pending_slots + pend_slots_shared);
    w.u64(L.pending_deliveries);
    w.u64(L.pending_injections);
    w.u64(L.pending_polls_skipped);

    w.boolean(cfg.energy.enabled);
    if (cfg.energy.enabled) {
      w.u64(cfg.energy.cost_transmit);
      w.u64(cfg.energy.cost_listen);
      w.u64(cfg.energy.cost_sleep);
      L.meter.save_state(w);
    }
  }

  void run(const std::vector<StopCondition>& stops) {
    // The lockstep loop, with an O(1) stop gate. Every active lane
    // processes every event, so each lane's total_slots advances by
    // exactly one per event — a lane's slot-count stop therefore triggers
    // at a fixed future event number, and its time stop at a fixed time.
    // Folding those into two cohort-wide minima turns the per-event stop
    // evaluation (the scalar run() loop's pre-step checks, per lane) into
    // two comparisons; the per-lane scan runs only when a minimum fires,
    // which always retires at least one lane, so the loop cannot spin.
    std::vector<std::uint32_t> retiring;
    std::uint64_t events_done = 0;
    Tick min_max_time = kTickInfinity;
    std::uint64_t min_slot_trigger = UINT64_MAX;
    const auto recompute_gate = [&] {
      flush_metrics();  // total_slots reads below need the folded counters
      min_max_time = kTickInfinity;
      min_slot_trigger = UINT64_MAX;
      for (const std::uint32_t k : active) {
        min_max_time = std::min(min_max_time, stops[k].max_time);
        const std::uint64_t total = lanes[k]->metrics.stats().total_slots;
        const std::uint64_t max = stops[k].max_total_slots;
        // Event number (counted from this run() call) at which lane k's
        // slot condition total + e >= max first holds, saturating.
        const std::uint64_t remaining = max <= total ? 0 : max - total;
        const std::uint64_t trigger =
            remaining >= UINT64_MAX - events_done ? UINT64_MAX
                                                  : events_done + remaining;
        min_slot_trigger = std::min(min_slot_trigger, trigger);
      }
    };
    recompute_gate();
    while (!active.empty()) {
      const Tick t = peek_time();
      if (t > min_max_time || events_done >= min_slot_trigger) {
        flush_metrics();
        retiring.clear();
        for (const std::uint32_t k : active) {
          if (t > stops[k].max_time ||
              lanes[k]->metrics.stats().total_slots >=
                  stops[k].max_total_slots)
            retiring.push_back(k);
        }
        for (const std::uint32_t k : retiring) retire(k);
        if (active.empty()) break;
        recompute_gate();
      }
      std::uint64_t did = process_quiet_run(min_slot_trigger - events_done);
      if (did == 0) {
        process_event();
        did = 1;
      }
      events_done += did;
    }
    flush_cohort_telemetry();
  }
};

std::vector<Tick> lockstep_slot_lengths(const LaneMaterials& m) {
  // The protocol must be the lane-ized automaton at every station; every
  // station's slot length must be fixed within [1, R] units; no
  // checkpointing, and the slot policy must be snapshot-stateless (its
  // save_state writes nothing) so lane snapshots can splice an empty
  // policy section.
  const EngineConfig& c = m.cfg;
  if (c.n < 1 || c.bound_r < 1 || c.prune_interval < 1 ||
      c.checkpoint_interval != 0 || c.checkpoint_sink ||
      m.slot_policy == nullptr || m.protocols.size() != c.n)
    return {};
  for (const auto& p : m.protocols)
    if (p == nullptr || p->name() != kLaneizedProtocol) return {};
  const Tick max_ticks = static_cast<Tick>(c.bound_r) * kTicksPerUnit;
  std::vector<Tick> lengths(c.n);
  for (std::uint32_t s = 1; s <= c.n; ++s) {
    const Tick len = m.slot_policy->fixed_length(s);
    if (len < kTicksPerUnit || len > max_ticks) return {};
    lengths[s - 1] = len;
  }
  snapshot::Writer probe;
  m.slot_policy->save_state(probe);
  if (!probe.buffer().empty()) return {};
  return lengths;
}

namespace {

/// lockstep_eligible's test, returning the shared slot lengths (empty
/// when the lanes cannot run as one cohort).
std::vector<Tick> cohort_lengths(const std::vector<LaneMaterials>& lanes) {
  if (lanes.empty()) return {};
  const EngineConfig& c0 = lanes[0].cfg;
  std::vector<Tick> lengths = lockstep_slot_lengths(lanes[0]);
  for (std::size_t k = 1; !lengths.empty() && k < lanes.size(); ++k) {
    const EngineConfig& c = lanes[k].cfg;
    if (c.n != c0.n || c.bound_r != c0.bound_r ||
        c.keep_channel_history != c0.keep_channel_history ||
        c.record_trace != c0.record_trace ||
        c.record_deliveries != c0.record_deliveries ||
        c.allow_control != c0.allow_control ||
        c.prune_interval != c0.prune_interval ||
        c.restrained != c0.restrained || c.energy != c0.energy ||
        lockstep_slot_lengths(lanes[k]) != lengths)
      return {};
  }
  return lengths;
}

}  // namespace

bool lockstep_eligible(const std::vector<LaneMaterials>& lanes) {
  return !cohort_lengths(lanes).empty();
}

CohortEngine::CohortEngine(std::vector<LaneMaterials> mats)
    : impl_(std::make_unique<Impl>()) {
  AM_REQUIRE(!mats.empty(), "cohort needs at least one lane");
  std::vector<Tick> lengths = cohort_lengths(mats);
  AM_REQUIRE(!lengths.empty(),
             "cohort lanes must pass sim::lockstep_eligible (run other "
             "lanes on scalar engines)");
  Impl& im = *impl_;
  im.K = static_cast<std::uint32_t>(mats.size());
  const EngineConfig& c0 = mats[0].cfg;

  // ---- construction, mirroring the Engine constructor ----
  im.cfg = c0;
  im.cfg.checkpoint_sink = nullptr;
  im.max_slot_ticks = static_cast<Tick>(c0.bound_r) * kTicksPerUnit;
  im.lengths = std::move(lengths);
  const std::uint32_t n = im.cfg.n;
  im.events = SlotEventHeap(n);
  im.slot_index.assign(n, 0);
  im.slot_begin.assign(n, 0);
  im.slot_end.assign(n, 0);
  const std::size_t cells = static_cast<std::size_t>(n) * im.K;
  im.ca_state.assign(cells, kCaInit);
  im.ca_turn.assign(cells, 1);
  im.ca_countdown.assign(cells, 0);
  im.ca_heard.assign(cells, 0);
  im.ca_turns_taken.assign(cells, 0);
  im.action.assign(cells, SlotAction::kListen);
  im.q_empty.assign(cells, 1);  // queues start empty; poll_lane marks pushes
  im.uniform = std::all_of(im.lengths.begin(), im.lengths.end(),
                           [&](Tick l) { return l == im.lengths[0]; });
  im.lane_ledger = std::make_unique<channel::LaneLedger>(
      im.K, im.cfg.keep_channel_history, im.cfg.restrained);
  im.fb_buffer.assign(im.K, Feedback::kSilence);
  im.pend_station_slots.assign(n, 0);
  im.pend_listen.assign(im.K, 0);
  im.pend_tx_packet.assign(im.K, 0);
  im.pend_tx_control.assign(im.K, 0);
  im.pend_station_tx.assign(cells, 0);

  for (std::uint32_t k = 0; k < im.K; ++k) {
    auto lane = std::make_unique<Impl::Lane>(n);
    lane->injection = std::move(mats[k].injection);
    if (im.cfg.record_deliveries)
      lane->deliveries.reserve(mats[k].cfg.delivery_reserve_hint);
    util::Rng seeder(mats[k].cfg.seed);
    lane->stations.reserve(n);
    for (std::uint32_t s = 0; s < n; ++s)
      lane->stations.emplace_back(static_cast<StationId>(s + 1), n,
                                  im.cfg.bound_r, seeder.next());
    im.lanes.push_back(std::move(lane));
    im.lane_ptr.push_back(im.lanes.back().get());
    // Packets injected at time 0 are visible to the very first decision.
    im.poll_lane(k, 0);
    Impl::Lane& L = *im.lanes.back();
    L.next_injection_poll =
        L.injection ? L.injection->next_arrival_hint(0) : kTickInfinity;
    im.any_injection = im.any_injection || L.injection != nullptr;
    im.active.push_back(k);
  }

  // All stations commit their first slot at time 0 (station order, lane
  // inner — each lane sees exactly the scalar constructor's sequence).
  for (std::uint32_t s = 1; s <= n; ++s) {
    const Tick end = im.lengths[s - 1];
    for (std::uint32_t k = 0; k < im.K; ++k) {
      const std::size_t i = im.idx(s, k);
      const SlotAction first = im.ca_first_action(i, s);
      im.lane_commit_action(k, i, s, first, /*begin=*/0, end);
    }
    im.slot_index[s - 1] = 1;
    im.slot_begin[s - 1] = 0;
    im.slot_end[s - 1] = end;
    im.events.update(s, end);
  }
}

CohortEngine::~CohortEngine() {
  if (!impl_) return;
  Impl& im = *impl_;
  im.flush_metrics();
  for (const std::uint32_t k : im.active)
    im.lane_ptr[k]->pending_slots += im.pend_slots_shared;
  im.pend_slots_shared = 0;
  for (auto& lane : im.lanes) im.flush_lane(*lane);
  im.flush_cohort_telemetry();
  // im.lane_ledger's destructor flushes each lane's channel telemetry.
}

std::size_t CohortEngine::lanes() const noexcept { return impl_->lanes.size(); }

bool CohortEngine::retired(std::size_t lane) const {
  AM_REQUIRE(lane < impl_->lanes.size(), "lane index out of range");
  return impl_->lanes[lane]->frozen != nullptr;
}

void CohortEngine::run(const StopCondition& stop) {
  run(std::vector<StopCondition>(lanes(), stop));
}

void CohortEngine::run(const std::vector<StopCondition>& stops) {
  AM_REQUIRE(stops.size() == lanes(), "one stop condition per lane");
  AM_REQUIRE(!impl_->ran, "a cohort runs once: its retired lanes are frozen");
  for (const StopCondition& stop : stops)
    AM_REQUIRE(!stop.predicate,
               "cohort stops take no predicate (run predicate stops on a "
               "scalar engine)");
  impl_->ran = true;
  impl_->run(stops);
}

const metrics::RunStats& CohortEngine::stats(std::size_t lane) const {
  AM_REQUIRE(lane < impl_->lanes.size(), "lane index out of range");
  impl_->flush_metrics();  // fold the SoA slot counters before observing
  return impl_->lanes[lane]->metrics.stats();
}

const energy::EnergyMeter& CohortEngine::energy_meter(std::size_t lane) const {
  AM_REQUIRE(lane < impl_->lanes.size(), "lane index out of range");
  return impl_->lanes[lane]->meter;  // charged eagerly — no fold needed
}

const channel::LedgerStats& CohortEngine::channel_stats(
    std::size_t lane) const {
  AM_REQUIRE(lane < impl_->lanes.size(), "lane index out of range");
  // LedgerStats update eagerly in the LaneLedger — no fold needed.
  return impl_->lane_ledger->stats(static_cast<std::uint32_t>(lane));
}

void CohortEngine::save_lane_state(std::size_t lane,
                                   snapshot::Writer& w) const {
  AM_REQUIRE(lane < impl_->lanes.size(), "lane index out of range");
  impl_->save_lane_state(lane, w);
}

}  // namespace asyncmac::sim
