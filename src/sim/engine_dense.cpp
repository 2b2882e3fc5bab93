// asyncmac/sim/engine_dense.cpp
//
// The engine's dense path: Engine::run for a dense() run (sim/engine.h).
//
// Every station runs the CA-ARRoW automaton and every slot lasts the same
// L ticks, so the (end, station) event order is a strict round-robin:
// each round all n slots end at one time t, in ascending station order.
// The scheduler becomes a cursor (next station, t). Before the cursor,
// stations hold slot [t, t + L); from it on, [t - L, t). The winner tree,
// the slot policy (fixed_length is binding: sim/slot_policy.h) and the
// per-station slot records go unused until run() returns.
//
// The loop runs the general step's operations in the general step's
// order on one event at a time, with the CA-ARRoW automaton ported onto
// n-wide arrays (KEEP IN SYNC with core/ca_arrow.cpp, whose next_action,
// begin_phase and save_state field order it copies). Two things make it
// fast beyond that:
//  * the quiet-run batcher: when a round's slot [t - L, t) takes the
//    ledger's silent or memo fast path (Ledger::quiet_at / memo_at) and no
//    injection poll is due at t, the listening stations from the cursor on
//    that await the end of a transmission sequence all see the same
//    feedback. Their events are processed as one batch: the automaton
//    steps per station, every counter moves by the batch size, and the
//    ledger is charged for the skipped queries (Ledger::skip_queries). A
//    batch never crosses the prune cadence or the stop budget, so the
//    prune lands on the same event as in the general path;
//  * the engine's Collector slot counts, engine.dense_slots and the
//    CA-ARRoW turn counter are batched and folded in when run() returns.
//
// Byte identity: load() reads the automaton from each protocol's
// save_state bytes, and store() writes it back through the protocol's
// load_state, sets every committed slot and re-keys the scheduler, so
// the engine holds exactly the state the general path leaves.
// tests/test_dense.cpp and the fuzz oracle (verify/campaign.cpp) compare
// the two paths' save_state bytes.
#include <algorithm>

#include "sim/engine.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::sim {

namespace {

struct DenseTelemetry {
  telemetry::Counter& dense_slots =
      telemetry::Registry::global().counter("engine.dense_slots");
  telemetry::Counter& ca_arrow_turns =
      telemetry::Registry::global().counter("core.ca_arrow.turns");

  static DenseTelemetry& get() {
    static DenseTelemetry t;
    return t;
  }
};

// The dense path's automaton, identified by Protocol::name() (sim has no
// link-time dependency on core).
constexpr const char* kDenseProtocol = "CA-ARRoW";

// core::CaArrowProtocol::State values, pinned by its save_state u8.
constexpr std::uint8_t kCaCountdown = 1;
constexpr std::uint8_t kCaDrain = 2;
constexpr std::uint8_t kCaNoise = 3;
constexpr std::uint8_t kCaAwaitSequenceEnd = 4;

}  // namespace

class Engine::DenseRun {
 public:
  explicit DenseRun(Engine& e)
      : e_(e), n_(e.cfg_.n), len_(e.dense_length_) {}

  /// Read the cursor from the scheduler and the automaton from the
  /// protocols (CaArrowProtocol::save_state's fields, in its order). False
  /// when the committed slots are not in round-robin form or the prune
  /// cadence is already due — states a snapshot saved under another
  /// configuration can hold.
  bool load() {
    if (e_.steps_since_prune_ >= e_.cfg_.prune_interval) return false;
    next_ = e_.events_.top_station();
    t_ = e_.events_.top_time();
    state_.resize(n_);
    turn_.resize(n_);
    countdown_.resize(n_);
    heard_.resize(n_);
    turns_taken_.resize(n_);
    action_.resize(n_);
    q_empty_.resize(n_);
    station_slots_.assign(n_, 0);
    station_tx_.assign(n_, 0);
    for (std::uint32_t i = 0; i < n_; ++i) {
      const StationRuntime& s = e_.stations_[i];
      if (s.slot_end != slot_end(i) || s.slot_begin != s.slot_end - len_)
        return false;
      snapshot::Writer w;
      s.protocol->save_state(w);
      snapshot::Reader r(w.buffer());
      state_[i] = r.u8();
      turn_[i] = r.u32();
      countdown_[i] = r.u64();
      heard_[i] = r.boolean() ? 1 : 0;
      turns_taken_[i] = r.u64();
      action_[i] = s.action;
      q_empty_[i] = s.ctx.queue_empty() ? 1 : 0;
    }
    return true;
  }

  /// Events until the stop triggers: the general run() loop's two checks,
  /// with the slot count as a budget.
  void run(const StopCondition& stop) {
    const std::uint64_t total = e_.metrics_.stats().total_slots;
    std::uint64_t budget =
        stop.max_total_slots > total ? stop.max_total_slots - total : 0;
    while (budget > 0 && t_ <= stop.max_time) {
      std::uint64_t done = quiet_run(budget);
      if (done == 0) {
        step();
        done = 1;
      }
      budget -= done;
    }
  }

  /// Write everything back into the engine's general state.
  void store() {
    metrics::Collector& metrics = e_.metrics_;
    metrics.on_slot_batch(events_, listen_, tx_packet_, tx_control_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      StationRuntime& s = e_.stations_[i];
      if ((station_slots_[i] | station_tx_[i]) != 0)
        metrics.on_station_slot_batch(i + 1, station_slots_[i],
                                      station_tx_[i]);
      s.slot_index += station_slots_[i];
      s.slot_end = slot_end(i);
      s.slot_begin = s.slot_end - len_;
      s.action = action_[i];
      snapshot::Writer w;
      w.u8(state_[i]);
      w.u32(turn_[i]);
      w.u64(countdown_[i]);
      w.boolean(heard_[i] != 0);
      w.u64(turns_taken_[i]);
      snapshot::Reader r(w.buffer());
      s.protocol->load_state(r, s.ctx);
      e_.events_.update(s.ctx.id(), s.slot_end);
    }
    flush_telemetry();
  }

 private:
  /// Committed slot end of station index i under the cursor.
  Tick slot_end(std::uint32_t i) const {
    return i + 1 < next_ ? t_ + len_ : t_;
  }

  void advance(std::uint64_t stations) {
    next_ = static_cast<StationId>(next_ + stations);
    if (next_ > n_) {
      next_ = 1;
      t_ += len_;
    }
  }

  // ---- the CA-ARRoW automaton (port of core/ca_arrow.cpp) ----

  void advance_turn(std::size_t i) { turn_[i] = (turn_[i] % n_) + 1; }

  SlotAction begin_phase(std::size_t i) {
    if (turn_[i] == i + 1) {
      ++turns_taken_[i];
      ++turns_;
      countdown_[i] = 2ULL * e_.cfg_.bound_r;
      state_[i] = kCaCountdown;
    } else {
      heard_[i] = 0;
      state_[i] = kCaAwaitSequenceEnd;
    }
    return SlotAction::kListen;
  }

  SlotAction next_action(std::size_t i, Feedback fb) {
    switch (state_[i]) {
      case kCaCountdown:
        if (--countdown_[i] > 0) return SlotAction::kListen;
        if (q_empty_[i]) {
          state_[i] = kCaNoise;
          return SlotAction::kTransmitControl;
        }
        state_[i] = kCaDrain;
        return SlotAction::kTransmitPacket;
      case kCaNoise:
        advance_turn(i);
        return begin_phase(i);
      case kCaDrain:
        if (!q_empty_[i]) return SlotAction::kTransmitPacket;
        advance_turn(i);
        return begin_phase(i);
      case kCaAwaitSequenceEnd:
        if (fb != Feedback::kSilence) {
          heard_[i] = 1;
          return SlotAction::kListen;
        }
        if (heard_[i]) {
          advance_turn(i);
          return begin_phase(i);
        }
        return SlotAction::kListen;
    }
    AM_CHECK(false);  // kInit is left before the first slot; else corrupt
    return SlotAction::kListen;
  }

  // ---- events ----

  /// One slot-end event: Engine::step on the cursor's station.
  void step() {
    const std::size_t i = next_ - 1;
    const StationId id = next_;
    const Tick t = t_;
    const Tick begin = t - len_;
    StationRuntime& s = e_.stations_[i];
    e_.now_ = t;
    if (t >= e_.next_injection_poll_) {
      e_.poll_injections(t);
      for (const Injection& inj : e_.injection_buffer_)
        q_empty_[inj.station - 1] = 0;
      e_.next_injection_poll_ = e_.injection_->next_arrival_hint(t);
    } else if (e_.injection_) {
      ++e_.pending_polls_skipped_;
    }

    const SlotAction act = action_[i];
    const Feedback fb = e_.ledger_.feedback(begin, t);
    if (act == SlotAction::kTransmitPacket && fb == Feedback::kAck &&
        (!e_.cfg_.restrained.enabled() ||
         e_.ledger_.transmission_successful(id, t))) {
      const Packet p = s.ctx.pop_front();
      q_empty_[i] = s.ctx.queue_empty() ? 1 : 0;
      e_.last_successful_ = id;
      e_.metrics_.on_delivery(id, p.cost, p.injected_at, len_, t);
      if (e_.cfg_.record_deliveries)
        e_.deliveries_.push_back({p.seq, id, p.injected_at, p.cost, len_, t});
      ++e_.pending_deliveries_;
    }
    ++events_;
    ++station_slots_[i];
    switch (act) {
      case SlotAction::kListen:
        ++listen_;
        break;
      case SlotAction::kTransmitPacket:
        ++tx_packet_;
        ++station_tx_[i];
        break;
      case SlotAction::kTransmitControl:
        ++tx_control_;
        ++station_tx_[i];
        break;
    }
    if (e_.cfg_.energy.enabled) {
      if (is_transmit(act))
        e_.meter_.add_transmit(id);
      else
        e_.meter_.add_idle(id, q_empty_[i] != 0);
    }

    // (The automaton ignores SlotResult::delivered.)
    const SlotAction next = next_action(i, fb);
    action_[i] = next;
    if (is_transmit(next)) {
      e_.check_action(s.ctx, next);
      e_.add_transmission(s.ctx, next, t, t + len_);
    }
    finish(1);
  }

  /// The quiet-run batcher (see the file comment). Returns the number of
  /// events processed; 0 when the cursor's event needs step().
  std::uint64_t quiet_run(std::uint64_t budget) {
    const Tick t = t_;
    const Tick begin = t - len_;
    channel::Ledger& ledger = e_.ledger_;
    Feedback fb = Feedback::kSilence;
    if (!ledger.quiet_at(begin)) {
      if (!ledger.memo_at(begin, t)) return 0;
      fb = ledger.memo_feedback();
    }
    if (t >= e_.next_injection_poll_) return 0;
    const std::size_t first = next_ - 1;
    const std::uint64_t cap =
        std::min({static_cast<std::uint64_t>(n_ - first),
                  e_.cfg_.prune_interval - e_.steps_since_prune_, budget});
    // An awaiting listener commits another listen whatever it hears, and
    // a listen registers nothing: the ledger stays untouched for the run.
    std::uint64_t m = 0;
    for (; m < cap; ++m) {
      const std::size_t i = first + m;
      if (state_[i] != kCaAwaitSequenceEnd ||
          action_[i] != SlotAction::kListen)
        break;
      next_action(i, fb);
    }
    if (m == 0) return 0;

    ledger.skip_queries(begin, t, m);
    for (std::size_t i = first; i < first + m; ++i) ++station_slots_[i];
    events_ += m;
    listen_ += m;
    if (e_.cfg_.energy.enabled) {
      // Listens cannot deliver and no poll is due, so every queue keeps
      // its state: q_empty is the general path's post-slot billing input.
      for (std::size_t i = first; i < first + m; ++i)
        e_.meter_.add_idle(static_cast<StationId>(i + 1), q_empty_[i] != 0);
    }
    if (e_.injection_) e_.pending_polls_skipped_ += m;
    e_.now_ = t;
    finish(m);
    return m;
  }

  /// The tail every event shares: counters, the cursor and the prune
  /// cadence (Engine::maybe_prune; the earliest slot start is t_ - L).
  void finish(std::uint64_t events) {
    e_.pending_slots_ += events;
    dense_slots_ += events;
    advance(events);
    e_.steps_since_prune_ += events;
    if (e_.steps_since_prune_ >= e_.cfg_.prune_interval) {
      e_.prune(t_ - len_);
      flush_telemetry();
    }
  }

  void flush_telemetry() {
    if ((dense_slots_ | turns_) == 0) return;
    DenseTelemetry& t = DenseTelemetry::get();
    t.dense_slots.add(dense_slots_);
    t.ca_arrow_turns.add(turns_);
    dense_slots_ = turns_ = 0;
  }

  Engine& e_;
  const std::uint32_t n_;
  const Tick len_;

  // The cursor: the next event is station next_'s slot end at t_.
  StationId next_ = 1;
  Tick t_ = 0;

  // The CA-ARRoW automaton per station (index station - 1), the committed
  // action and the queue-empty flag, kept at the queue's two mutation
  // sites (injection push, delivery pop).
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> turn_;
  std::vector<std::uint64_t> countdown_;
  std::vector<std::uint8_t> heard_;
  std::vector<std::uint64_t> turns_taken_;
  std::vector<SlotAction> action_;
  std::vector<std::uint8_t> q_empty_;

  // Collector slot counts (on_slot_end's), folded in by store(). Nothing
  // reads RunStats mid-run: the slot-count stop is a budget, and the
  // injectors' EngineView shows queues and the ledger, not RunStats.
  std::uint64_t events_ = 0;
  std::uint64_t listen_ = 0;
  std::uint64_t tx_packet_ = 0;
  std::uint64_t tx_control_ = 0;
  std::vector<std::uint64_t> station_slots_;
  std::vector<std::uint64_t> station_tx_;

  // Batched telemetry: engine.dense_slots and core.ca_arrow.turns.
  std::uint64_t dense_slots_ = 0;
  std::uint64_t turns_ = 0;
};

Tick Engine::dense_slot_length() const {
  if (cfg_.checkpoint_interval != 0) return 0;
  const Tick len = slot_policy_->fixed_length(1);
  if (len < kTicksPerUnit || len > max_slot_ticks_) return 0;
  for (const StationRuntime& s : stations_)
    if (slot_policy_->fixed_length(s.ctx.id()) != len ||
        s.protocol->name() != kDenseProtocol)
      return 0;
  return len;
}

bool Engine::run_dense(const StopCondition& stop) {
  DenseRun dense(*this);
  if (!dense.load()) return false;
  dense.run(stop);
  dense.store();
  return true;
}

}  // namespace asyncmac::sim
