// asyncmac/sim/engine_dense.cpp
//
// The engine's dense path: Engine::run for a dense() run (sim/engine.h).
//
// Station i's slots all last L_i ticks and its first begins at 0, so its
// slot-end events fall at the multiples of L_i, and the (end, station)
// event order repeats with the hyperperiod P = lcm(L_i). The scheduler
// becomes a cursor over a table of one hyperperiod's events, (offset in
// (0, P], station) sorted as the winner tree orders them, built by the
// first dense run; after the table's last entry the base time grows by P.
// A uniform schedule (every L_i equal) is the table's one-offset case: n
// entries, one round-robin. The committed slots follow from the cursor:
// station i holds [e - L_i, e), e its first multiple of L_i at or after
// the cursor's time t — past t when i is below the cursor's station and
// also ends at t (it was processed).
// The winner tree, the slot policy (fixed_length is binding:
// sim/slot_policy.h) and the per-station slot records go unused until
// run() returns. Past Engine::kDenseEventCap table entries the run stays
// on the general loop.
//
// The loop runs the general step's operations in the general step's
// order on one event at a time. Each station steps through its own
// automaton (a virtual Protocol::next_action with the SlotResult the
// general step builds), except when every station runs CA-ARRoW
// (Protocol::ca_arrow_automaton() is non-null for each): then the loop
// steps each station's core::CaArrowAutomaton (core/ca_arrow.h, the one
// definition CaArrowProtocol::next_action also runs) in place, with no
// virtual call, and adds:
//  * the quiet-run batcher: when the cursor's slot [t - L, t) takes the
//    ledger's silent or memo fast path (Ledger::quiet_at / memo_at) and
//    no injection poll is due at t, the consecutive events from the
//    cursor on that end the same slot (same t, same L: on a uniform
//    schedule, the rest of the round) and whose listening stations await
//    the end of a transmission sequence all see the same feedback. Their
//    events are processed as one batch: the automaton steps per station,
//    every counter moves by the batch size, and the ledger is charged for
//    the skipped queries (Ledger::skip_queries). A batch never crosses
//    the prune cadence or the stop budget, so the prune lands on the same
//    event as in the general path;
//  * the core.ca_arrow.turns counter, fed from the change in the
//    automata's summed turns_taken at each telemetry flush.
// Either way the engine's Collector slot counts and engine.dense_slots
// are batched and folded in when run() returns. The prune horizon is the
// earliest committed slot begin, the general path's.
//
// Byte identity: every automaton is stepped where its protocol keeps it,
// and store() sets every committed slot and re-keys the scheduler, so
// the engine holds exactly the state the general path leaves.
// tests/test_dense.cpp and the fuzz oracle (verify/campaign.cpp) compare
// the two paths' save_state bytes.
#include <algorithm>
#include <numeric>

#include "core/ca_arrow.h"
#include "sim/engine.h"
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

// The winner tree's (end, station) order on hyperperiod table entries.
constexpr auto kEventOrder = [](const auto& a, const auto& b) {
  return a.offset != b.offset ? a.offset < b.offset : a.station < b.station;
};

}  // namespace

/// The dense loop's schedule: the next event is the hyperperiod table's
/// entry pos_, at base_ + its offset (see the file comment for the
/// committed slots).
class Engine::TableCursor {
 public:
  explicit TableCursor(const Engine& e)
      : n_(e.cfg_.n),
        period_(e.dense_period_),
        lengths_(e.dense_lengths_.data()),
        table_(e.dense_events_.data()),
        size_(e.dense_events_.size()) {}

  /// Place the cursor on the event (t, station); false when the table
  /// holds no such event.
  bool seek(Tick t, StationId station) {
    base_ = (t - 1) / period_ * period_;
    const DenseEvent key{t - base_, station - 1, 0};
    const DenseEvent* it = std::lower_bound(table_, table_ + size_, key,
                                            kEventOrder);
    if (it == table_ + size_ || it->offset != key.offset ||
        it->station != key.station)
      return false;
    pos_ = static_cast<std::size_t>(it - table_);
    t_ = t;
    return true;
  }

  Tick time() const { return t_; }
  std::size_t station() const { return table_[pos_].station; }
  Tick length() const { return lengths_[station()]; }
  Tick length(std::size_t i) const { return lengths_[i]; }

  /// Entries from the cursor on with its offset and length.
  std::uint64_t run() const { return table_[pos_].run; }
  std::size_t station_at(std::uint64_t m) const {
    return table_[pos_ + m].station;
  }

  void advance(std::uint64_t events) {
    pos_ += events;
    if (pos_ == size_) {
      pos_ = 0;
      base_ += period_;
    }
    t_ = base_ + table_[pos_].offset;
  }

  /// Station index i's committed slot end: its first multiple of L_i at
  /// or after time(), past it when i is below the cursor's station.
  Tick end_of(std::size_t i) const {
    const Tick len = lengths_[i];
    Tick end = (t_ + len - 1) / len * len;
    if (end == t_ && i < station()) end += len;
    return end;
  }
  /// The earliest committed slot begin; O(n), once per prune cadence.
  Tick horizon() const {
    Tick earliest = kTickInfinity;
    for (std::size_t i = 0; i < n_; ++i)
      earliest = std::min(earliest, end_of(i) - lengths_[i]);
    return earliest;
  }

 private:
  const std::uint32_t n_;
  const Tick period_;
  const Tick* const lengths_;
  const DenseEvent* const table_;
  const std::size_t size_;
  std::size_t pos_ = 0;
  Tick base_ = 0;
  Tick t_ = 0;
};

class Engine::DenseRun {
 public:
  explicit DenseRun(Engine& e)
      : e_(e), n_(e.cfg_.n), r_(e.cfg_.bound_r), cur_(e) {
    for (StationRuntime& s : e.stations_) {
      core::CaArrowAutomaton* a = s.protocol->ca_arrow_automaton();
      if (a == nullptr) {
        automata_.clear();
        return;
      }
      automata_.push_back(a);
    }
    turns_flushed_ = turns_taken();
  }

  /// Read the cursor from the scheduler. False when the scheduler's next
  /// event or a committed slot is not the schedule's, or the prune
  /// cadence is already due — states a snapshot saved under another
  /// configuration can hold.
  bool load() {
    if (e_.steps_since_prune_ >= e_.cfg_.prune_interval) return false;
    if (!cur_.seek(e_.events_.top_time(), e_.events_.top_station()))
      return false;
    action_.resize(n_);
    q_empty_.resize(n_);
    station_slots_.assign(n_, 0);
    station_tx_.assign(n_, 0);
    for (std::uint32_t i = 0; i < n_; ++i) {
      const StationRuntime& s = e_.stations_[i];
      if (s.slot_end != cur_.end_of(i) ||
          s.slot_begin != s.slot_end - cur_.length(i))
        return false;
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
    while (budget > 0 && cur_.time() <= stop.max_time) {
      std::uint64_t done = automata_.empty() ? 0 : quiet_run(budget);
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
    e_.dense_slot_count_ += events_;
    for (std::uint32_t i = 0; i < n_; ++i) {
      StationRuntime& s = e_.stations_[i];
      if ((station_slots_[i] | station_tx_[i]) != 0)
        metrics.on_station_slot_batch(i + 1, station_slots_[i],
                                      station_tx_[i]);
      s.slot_index += station_slots_[i];
      s.slot_end = cur_.end_of(i);
      s.slot_begin = s.slot_end - cur_.length(i);
      s.action = action_[i];
      e_.events_.update(s.ctx.id(), s.slot_end);
    }
    flush_telemetry();
  }

 private:
  // ---- events ----

  /// One slot-end event: Engine::step on the cursor's station.
  void step() {
    const std::size_t i = cur_.station();
    const StationId id = static_cast<StationId>(i + 1);
    const Tick t = cur_.time();
    const Tick len = cur_.length();
    const Tick begin = t - len;
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
    SlotResult result{act, fb, false};
    if (act == SlotAction::kTransmitPacket && fb == Feedback::kAck &&
        (!e_.cfg_.restrained.enabled() ||
         e_.ledger_.transmission_successful(id, t))) {
      const Packet p = s.ctx.pop_front();
      result.delivered = true;
      q_empty_[i] = s.ctx.queue_empty() ? 1 : 0;
      e_.last_successful_ = id;
      e_.metrics_.on_delivery(id, p.cost, p.injected_at, len, t);
      if (e_.cfg_.record_deliveries)
        e_.deliveries_.push_back({p.seq, id, p.injected_at, p.cost, len, t});
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

    const SlotAction next =
        automata_.empty() ? s.protocol->next_action(result, s.ctx)
                          : automata_[i]->next(id, n_, r_, q_empty_[i], fb);
    action_[i] = next;
    if (is_transmit(next)) {
      e_.check_action(s.ctx, next);
      e_.add_transmission(s.ctx, next, t, t + len);
    }
    finish(1);
  }

  /// The quiet-run batcher (see the file comment). Returns the number of
  /// events processed; 0 when the cursor's event needs step().
  std::uint64_t quiet_run(std::uint64_t budget) {
    const Tick t = cur_.time();
    const Tick begin = t - cur_.length();
    channel::Ledger& ledger = e_.ledger_;
    Feedback fb = Feedback::kSilence;
    if (!ledger.quiet_at(begin)) {
      if (!ledger.memo_at(begin, t)) return 0;
      fb = ledger.memo_feedback();
    }
    if (t >= e_.next_injection_poll_) return 0;
    // A local copy: the automata's stores below cannot alias it, so its
    // fields stay in registers through the loops.
    const TableCursor at = cur_;
    const std::uint64_t cap =
        std::min({at.run(), e_.cfg_.prune_interval - e_.steps_since_prune_,
                  budget});
    // An awaiting listener commits another listen whatever it hears, and
    // a listen registers nothing: the ledger stays untouched for the run.
    std::uint64_t m = 0;
    for (; m < cap; ++m) {
      const std::size_t i = at.station_at(m);
      core::CaArrowAutomaton& a = *automata_[i];
      if (a.state != core::CaArrowAutomaton::State::kAwaitSequenceEnd ||
          action_[i] != SlotAction::kListen)
        break;
      a.next(static_cast<StationId>(i + 1), n_, r_, q_empty_[i], fb);
      ++station_slots_[i];
    }
    if (m == 0) return 0;

    ledger.skip_queries(begin, t, m);
    events_ += m;
    listen_ += m;
    if (e_.cfg_.energy.enabled) {
      // Listens cannot deliver and no poll is due, so every queue keeps
      // its state: q_empty is the general path's post-slot billing input.
      for (std::uint64_t k = 0; k < m; ++k) {
        const std::size_t i = at.station_at(k);
        e_.meter_.add_idle(static_cast<StationId>(i + 1), q_empty_[i] != 0);
      }
    }
    if (e_.injection_) e_.pending_polls_skipped_ += m;
    e_.now_ = t;
    finish(m);
    return m;
  }

  /// The tail every event shares: counters, the cursor and the prune
  /// cadence (Engine::maybe_prune, at the cursor's horizon).
  void finish(std::uint64_t events) {
    e_.pending_slots_ += events;
    dense_slots_ += events;
    cur_.advance(events);
    e_.steps_since_prune_ += events;
    if (e_.steps_since_prune_ >= e_.cfg_.prune_interval) {
      e_.prune(cur_.horizon());
      flush_telemetry();
    }
  }

  void flush_telemetry() {
    DenseTelemetry& t = DenseTelemetry::get();
    t.dense_slots.add(dense_slots_);
    dense_slots_ = 0;
    const std::uint64_t turns = turns_taken();
    t.ca_arrow_turns.add(turns - turns_flushed_);
    turns_flushed_ = turns;
  }

  /// The automata's turns so far, summed: O(n), once per flush.
  std::uint64_t turns_taken() const {
    std::uint64_t turns = 0;
    for (const core::CaArrowAutomaton* a : automata_) turns += a->turns_taken;
    return turns;
  }

  Engine& e_;
  const std::uint32_t n_;
  const std::uint32_t r_;
  /// The next event and the committed slots.
  TableCursor cur_;
  /// Each station's CA-ARRoW automaton, inside its protocol (index
  /// station - 1); empty unless every station runs one, and then the loop
  /// steps these and runs the batcher.
  std::vector<core::CaArrowAutomaton*> automata_;

  // The committed action and the queue-empty flag per station, the flag
  // kept at the queue's two mutation sites (injection push, delivery pop).
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

  // Batched telemetry: engine.dense_slots, and the summed turns_taken
  // already added to core.ca_arrow.turns.
  std::uint64_t dense_slots_ = 0;
  std::uint64_t turns_flushed_ = 0;
};

void Engine::plan_dense() {
  if (cfg_.checkpoint_interval != 0) return;
  std::vector<Tick> lengths(cfg_.n);
  Tick period = 1;
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    const Tick len = slot_policy_->fixed_length(i + 1);
    if (len < kTicksPerUnit || len > max_slot_ticks_) return;
    lengths[i] = len;
    // The lcm; one past Tick's range has far more events than the cap.
    if (period % len != 0 &&
        __builtin_mul_overflow(period / std::gcd(period, len), len, &period))
      return;
  }
  std::uint64_t events = 0;
  for (const Tick len : lengths) {
    events += static_cast<std::uint64_t>(period / len);
    if (events > kDenseEventCap) return;
  }
  dense_lengths_ = std::move(lengths);
  dense_period_ = period;
}

bool Engine::run_dense(const StopCondition& stop) {
  // The table is built by the first dense run, not by plan_dense(): a
  // traced, predicate-stopped or step-only engine never walks it.
  if (dense_events_.empty()) {
    // One hyperperiod of a winner tree over the fixed lengths, recorded.
    SlotEventHeap order(cfg_.n);
    std::size_t events = 0;
    for (std::uint32_t i = 0; i < cfg_.n; ++i) {
      order.update(i + 1, dense_lengths_[i]);
      events += static_cast<std::size_t>(dense_period_ / dense_lengths_[i]);
    }
    dense_events_.reserve(events);
    while (order.top_time() <= dense_period_) {
      const Tick t = order.top_time();
      const StationId id = order.top_station();
      dense_events_.push_back({t, id - 1, 1});
      order.update(id, t + dense_lengths_[id - 1]);
    }
    for (std::size_t k = dense_events_.size() - 1; k-- > 0;) {
      const DenseEvent& next = dense_events_[k + 1];
      DenseEvent& e = dense_events_[k];
      if (e.offset == next.offset &&
          dense_lengths_[e.station] == dense_lengths_[next.station])
        e.run = next.run + 1;
    }
  }
  DenseRun dense(*this);
  if (!dense.load()) return false;
  dense.run(stop);
  dense.store();
  return true;
}

}  // namespace asyncmac::sim
