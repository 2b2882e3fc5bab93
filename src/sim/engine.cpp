#include "sim/engine.h"

#include <algorithm>

#include "snapshot/state.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::sim {

namespace {
/// Initial capacity of the delivery log when record_deliveries is set.
/// The log grows unbounded with deliveries: long validator runs should
/// bound StopCondition::max_total_slots (or max_time) rather than rely on
/// the reserve.
constexpr std::size_t kDeliveryReserve = 1024;

// Write-only telemetry instruments (docs/OBSERVABILITY.md). The hot loop
// never touches these directly: per-step deltas accumulate in plain
// Engine members and are pushed here by flush_telemetry() on the cold
// path (prune cadence, run() exit, destruction), so the innermost path
// performs no atomic operations for telemetry at all.
struct EngineTelemetry {
  telemetry::Counter& slots =
      telemetry::Registry::global().counter("engine.slots");
  telemetry::Counter& injections =
      telemetry::Registry::global().counter("engine.injections");
  telemetry::Counter& deliveries =
      telemetry::Registry::global().counter("engine.deliveries");
  telemetry::Counter& prunes =
      telemetry::Registry::global().counter("engine.prunes");
  telemetry::Counter& polls_skipped =
      telemetry::Registry::global().counter("engine.injection_polls_skipped");

  static EngineTelemetry& get() {
    static EngineTelemetry t;
    return t;
  }
};
}  // namespace

Engine::Engine(EngineConfig cfg,
               std::vector<std::unique_ptr<Protocol>> protocols,
               std::unique_ptr<SlotPolicy> slot_policy,
               std::unique_ptr<InjectionPolicy> injection)
    : cfg_(cfg),
      slot_policy_(std::move(slot_policy)),
      injection_(std::move(injection)),
      ledger_(cfg.keep_channel_history, cfg.restrained),
      metrics_(cfg.n),
      meter_(cfg.n),
      events_(cfg.n) {
  AM_REQUIRE(cfg_.n >= 1, "need at least one station");
  AM_REQUIRE(cfg_.bound_r >= 1, "R must be >= 1");
  AM_REQUIRE(cfg_.prune_interval >= 1, "prune interval must be >= 1");
  AM_REQUIRE(protocols.size() == cfg_.n, "one protocol per station");
  AM_REQUIRE(slot_policy_ != nullptr, "slot policy is required");
  max_slot_ticks_ = static_cast<Tick>(cfg_.bound_r) * kTicksPerUnit;

  if (cfg_.record_deliveries)
    deliveries_.reserve(kDeliveryReserve);

  util::Rng seeder(cfg_.seed);
  stations_.reserve(cfg_.n);
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    AM_REQUIRE(protocols[i] != nullptr, "protocol must not be null");
    stations_.emplace_back(static_cast<StationId>(i + 1), cfg_.n,
                           cfg_.bound_r, seeder.next(),
                           std::move(protocols[i]));
  }

  plan_dense();

  // Packets injected at time 0 are visible to the very first decision.
  poll_injections(0);
  next_injection_poll_ =
      injection_ ? injection_->next_arrival_hint(0) : kTickInfinity;

  // All stations wake up simultaneously at time 0 (Section II / Lemma 1's
  // base case) and commit their first slot.
  for (auto& s : stations_) {
    const SlotAction first = s.protocol->next_action(std::nullopt, s.ctx);
    begin_slot(s, /*begin=*/0, first);
  }
}

Engine::~Engine() { flush_telemetry(); }

Engine::StationRuntime& Engine::rt(StationId id) {
  AM_CHECK(id >= 1 && id <= stations_.size());
  return stations_[id - 1];
}

const Engine::StationRuntime& Engine::rt(StationId id) const {
  AM_CHECK(id >= 1 && id <= stations_.size());
  return stations_[id - 1];
}

void Engine::check_action(const StationContext& ctx, SlotAction action) const {
  if (action == SlotAction::kTransmitPacket)
    AM_CHECK_MSG(!ctx.queue_empty(),
                 "station " << ctx.id() << " transmits with empty queue");
  if (action == SlotAction::kTransmitControl)
    AM_CHECK_MSG(cfg_.allow_control,
                 "control message in a no-control model (station "
                     << ctx.id() << ")");
}

void Engine::add_transmission(const StationContext& ctx, SlotAction action,
                              Tick begin, Tick end) {
  channel::Transmission tx;
  tx.station = ctx.id();
  tx.begin = begin;
  tx.end = end;
  tx.is_control = (action == SlotAction::kTransmitControl);
  tx.packet = tx.is_control ? 0 : ctx.front().seq;
  ledger_.add(tx);
}

void Engine::begin_slot(StationRuntime& s, Tick begin, SlotAction action) {
  if (is_transmit(action)) check_action(s.ctx, action);
  ++s.slot_index;
  s.slot_begin = begin;
  s.action = action;
  const Tick len =
      slot_policy_->slot_length(s.ctx.id(), s.slot_index, begin, action);
  AM_CHECK_MSG(len >= kTicksPerUnit && len <= max_slot_ticks_,
               "slot policy returned length " << len << " outside [1, R] for "
                                              << "station " << s.ctx.id());
  s.slot_end = begin + len;
  if (is_transmit(action)) add_transmission(s.ctx, action, begin, s.slot_end);
  // Re-key the station's single pending event in place (no push/pop).
  events_.update(s.ctx.id(), s.slot_end);
}

void Engine::poll_injections(Tick now) {
  if (!injection_) return;
  injection_buffer_.clear();
  injection_->poll(now, *this, injection_buffer_);
  for (const Injection& inj : injection_buffer_) {
    AM_CHECK_MSG(inj.time <= now, "injection in the future");
    AM_CHECK_MSG(inj.time >= last_injection_time_,
                 "injection times must be non-decreasing");
    AM_CHECK(inj.station >= 1 && inj.station <= cfg_.n);
    AM_CHECK_MSG(inj.cost >= kTicksPerUnit && inj.cost <= max_slot_ticks_,
                 "packet cost must lie in [1, R] time units");
    last_injection_time_ = inj.time;
    Packet p;
    p.seq = next_seq_++;
    p.station = inj.station;
    p.injected_at = inj.time;
    p.cost = inj.cost;
    rt(inj.station).ctx.push(p);
    metrics_.on_injection(inj.station, inj.cost, now);
  }
  pending_injections_ += injection_buffer_.size();
}

bool Engine::step() {
  if (events_.empty()) return false;
  const Tick t = events_.top_time();
  const StationId id = events_.top_station();
  now_ = t;
  // Injection skip-ahead: the standing hint bounds the next time a poll
  // could matter, so events strictly before it skip the virtual poll
  // entirely (exact by the next_arrival_hint contract).
  if (t >= next_injection_poll_) {
    poll_injections(t);
    next_injection_poll_ = injection_->next_arrival_hint(t);
  } else if (injection_) {
    ++pending_polls_skipped_;
  }

  StationRuntime& s = stations_[id - 1];
  AM_CHECK(s.slot_end == t);

  const Feedback fb = ledger_.feedback(s.slot_begin, s.slot_end);
  bool delivered = false;
  // Unrestrained, a transmitter's ack can only come from its own
  // transmission (any other successful end inside its slot would overlap
  // it). A rejected transmission never reached the medium, though, so
  // under a reject-mode restrained channel the ack may belong to another
  // station's transmission ending inside this slot — confirm ownership.
  if (s.action == SlotAction::kTransmitPacket && fb == Feedback::kAck &&
      (!cfg_.restrained.enabled() ||
       ledger_.transmission_successful(id, s.slot_end))) {
    const Packet p = s.ctx.pop_front();
    delivered = true;
    last_successful_ = id;
    const Tick realized = s.slot_end - s.slot_begin;
    metrics_.on_delivery(id, p.cost, p.injected_at, realized, t);
    if (cfg_.record_deliveries)
      deliveries_.push_back(
          {p.seq, id, p.injected_at, p.cost, realized, t});
    ++pending_deliveries_;
  }
  ++pending_slots_;
  metrics_.on_slot_end(id, s.action);
  if (cfg_.energy.enabled) {
    // Billed strictly after every simulation decision of the slot (the
    // queue state is post-delivery), so accounting can never perturb the
    // run — see energy/model.h for the billing rules.
    if (is_transmit(s.action))
      meter_.add_transmit(id);
    else
      meter_.add_idle(id, s.ctx.queue_empty());
  }
  if (cfg_.record_trace)
    trace_.record({id, s.slot_index, s.slot_begin, s.slot_end, s.action, fb});

  const SlotResult result{s.action, fb, delivered};
  const SlotAction next = s.protocol->next_action(result, s.ctx);
  begin_slot(s, /*begin=*/t, next);

  maybe_prune();
#if defined(__GNUC__) || defined(__clang__)
  // The re-keyed scheduler already names the next event's station; pull its
  // runtime and protocol toward L1 while the loop overhead runs. With
  // many stations the next runtime is usually cold — this hides most of
  // that latency and is a pure hint (no semantic effect).
  const StationRuntime& ns = stations_[events_.top_station() - 1];
  __builtin_prefetch(&ns);
  __builtin_prefetch(ns.protocol.get());
#endif
  return true;
}

void Engine::maybe_prune() {
  // Pruning is safe under keep_channel_history too: the ledger archives
  // pruned entries into full_history(), so inspection semantics are
  // unchanged while the live window — and with it every feedback() and
  // finalize_until() scan — stays bounded instead of growing with the
  // horizon (O(T^2) total work on long history runs).
  if (++steps_since_prune_ < cfg_.prune_interval) return;
  Tick horizon = kTickInfinity;
  for (const auto& s : stations_) horizon = std::min(horizon, s.slot_begin);
  prune(horizon);
}

void Engine::prune(Tick horizon) {
  steps_since_prune_ = 0;
  ledger_.prune_before(horizon);
  EngineTelemetry::get().prunes.add();
  flush_telemetry();
}

void Engine::flush_telemetry() {
  if ((pending_slots_ | pending_deliveries_ | pending_injections_ |
       pending_polls_skipped_) == 0)
    return;
  EngineTelemetry& t = EngineTelemetry::get();
  t.slots.add(pending_slots_);
  t.deliveries.add(pending_deliveries_);
  t.injections.add(pending_injections_);
  t.polls_skipped.add(pending_polls_skipped_);
  pending_slots_ = pending_deliveries_ = pending_injections_ =
      pending_polls_skipped_ = 0;
}

void Engine::run(const StopCondition& stop) {
  // A predicate must see every event, and a traced run records each one.
  if (!dense() || cfg_.record_trace || stop.predicate || !run_dense(stop)) {
    while (!events_.empty()) {
      if (events_.top_time() > stop.max_time) break;
      if (stats().total_slots >= stop.max_total_slots) break;
      if (!step()) break;
      if (stop.predicate && stop.predicate(*this)) break;
    }
  }
  flush_telemetry();
  ledger_.flush_telemetry();
}

std::size_t Engine::queue_size(StationId station) const {
  return rt(station).ctx.queue_size();
}

Tick Engine::queue_cost(StationId station) const {
  return rt(station).ctx.queue_cost();
}

const channel::LedgerStats& Engine::channel_stats() const {
  return ledger_.stats();
}

Tick Engine::fixed_slot_length(StationId station) const {
  return slot_policy_->fixed_length(station);
}

const Protocol& Engine::protocol(StationId station) const {
  return *rt(station).protocol;
}

Protocol& Engine::protocol_mut(StationId station) {
  return *rt(station).protocol;
}

const StationContext& Engine::context(StationId station) const {
  return rt(station).ctx;
}

std::uint64_t Engine::station_slots(StationId station) const {
  return rt(station).slot_index;
}

bool Engine::all_finished() const {
  return std::all_of(stations_.begin(), stations_.end(),
                     [](const StationRuntime& s) {
                       return s.protocol->finished();
                     });
}

// ------------------------------------------------------ checkpoint/resume

namespace {

[[noreturn]] void throw_mismatch(const char* what) {
  throw snapshot::SnapshotError(
      snapshot::ErrorKind::kMismatch,
      std::string("engine snapshot was saved under a different ") + what);
}

}  // namespace

void Engine::save_state(snapshot::Writer& w) const {
  // Defensive echo of the configuration facets the mutable state depends
  // on; load_state refuses a payload saved under a different shape.
  w.u32(cfg_.n);
  w.u32(cfg_.bound_r);
  w.boolean(cfg_.keep_channel_history);
  w.boolean(cfg_.record_trace);
  w.boolean(cfg_.record_deliveries);
  w.boolean(cfg_.allow_control);

  for (const StationRuntime& s : stations_) {
    w.u64(s.ctx.queue_.size());
    for (const Packet& p : s.ctx.queue_) {
      w.u64(p.seq);
      w.u32(p.station);
      w.i64(p.injected_at);
      w.i64(p.cost);
    }
    w.i64(s.ctx.queue_cost_);
    snapshot::save_rng(w, s.ctx.rng_);
    w.u64(s.slot_index);
    w.i64(s.slot_begin);
    w.i64(s.slot_end);
    w.u8(static_cast<std::uint8_t>(s.action));
    s.protocol->save_state(w);
  }

  slot_policy_->save_state(w);
  w.boolean(injection_ != nullptr);
  if (injection_) injection_->save_state(w);

  ledger_.save_state(w);
  metrics_.save_state(w);

  const auto& slots = trace_.slots();
  w.u64(slots.size());
  for (const trace::SlotRecord& rec : slots) {
    w.u32(rec.station);
    w.u64(rec.index);
    w.i64(rec.begin);
    w.i64(rec.end);
    w.u8(static_cast<std::uint8_t>(rec.action));
    w.u8(static_cast<std::uint8_t>(rec.feedback));
  }

  w.u64(deliveries_.size());
  for (const DeliveryRecord& d : deliveries_) {
    w.u64(d.seq);
    w.u32(d.station);
    w.i64(d.injected_at);
    w.i64(d.declared_cost);
    w.i64(d.realized_cost);
    w.i64(d.delivered_at);
  }

  w.i64(now_);
  w.i64(next_injection_poll_);
  w.i64(last_injection_time_);
  w.u64(next_seq_);
  w.u32(last_successful_);
  w.u64(steps_since_prune_);

  // Energy accounting tail, gated by the enabled flag: a disabled run
  // contributes one flag byte regardless of the configured costs, so the
  // energy-off snapshot bytes never depend on the cost vector.
  w.boolean(cfg_.energy.enabled);
  if (cfg_.energy.enabled) {
    w.u64(cfg_.energy.cost_transmit);
    w.u64(cfg_.energy.cost_listen);
    w.u64(cfg_.energy.cost_sleep);
    meter_.save_state(w);
  }
}

void Engine::load_state(snapshot::Reader& r) {
  if (r.u32() != cfg_.n) throw_mismatch("station count");
  if (r.u32() != cfg_.bound_r) throw_mismatch("asynchrony bound R");
  if (r.boolean() != cfg_.keep_channel_history)
    throw_mismatch("keep_channel_history setting");
  if (r.boolean() != cfg_.record_trace) throw_mismatch("record_trace setting");
  if (r.boolean() != cfg_.record_deliveries)
    throw_mismatch("record_deliveries setting");
  if (r.boolean() != cfg_.allow_control) throw_mismatch("allow_control model");

  for (StationRuntime& s : stations_) {
    const std::uint64_t qlen = r.u64();
    s.ctx.queue_.clear();
    for (std::uint64_t i = 0; i < qlen; ++i) {
      Packet p;
      p.seq = r.u64();
      p.station = r.u32();
      p.injected_at = r.i64();
      p.cost = r.i64();
      s.ctx.queue_.push_back(p);
    }
    s.ctx.queue_cost_ = r.i64();
    snapshot::load_rng(r, s.ctx.rng_);
    s.slot_index = r.u64();
    s.slot_begin = r.i64();
    s.slot_end = r.i64();
    // begin_slot commits only slots of [1, R] units from a time >= 0; any
    // other end would wrap the packed scheduler key or stall the station.
    // Ordered so the subtraction cannot overflow.
    if (s.slot_begin < 0 || s.slot_end <= s.slot_begin ||
        s.slot_end - s.slot_begin < kTicksPerUnit ||
        s.slot_end - s.slot_begin > max_slot_ticks_)
      throw snapshot::SnapshotError(snapshot::ErrorKind::kCorrupt,
                                    "committed slot outside [1, R] units");
    s.action = snapshot::load_enum(r, SlotAction::kTransmitControl);
    s.protocol->load_state(r, s.ctx);
    // The scheduler's top depends only on the (end, station) key set, so
    // re-keying every station reproduces the saved scheduler exactly.
    events_.update(s.ctx.id(), s.slot_end);
  }

  slot_policy_->load_state(r);
  const bool had_injection = r.boolean();
  if (had_injection != (injection_ != nullptr))
    throw_mismatch("injection adversary presence");
  if (injection_) injection_->load_state(r);

  ledger_.load_state(r);
  metrics_.load_state(r);

  const std::uint64_t trace_count = r.u64();
  trace_.clear();
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    trace::SlotRecord rec;
    rec.station = r.u32();
    rec.index = r.u64();
    rec.begin = r.i64();
    rec.end = r.i64();
    rec.action = snapshot::load_enum(r, SlotAction::kTransmitControl);
    rec.feedback = snapshot::load_enum(r, Feedback::kAck);
    trace_.record(rec);
  }

  const std::uint64_t delivery_count = r.u64();
  deliveries_.clear();
  for (std::uint64_t i = 0; i < delivery_count; ++i) {
    DeliveryRecord d;
    d.seq = r.u64();
    d.station = r.u32();
    d.injected_at = r.i64();
    d.declared_cost = r.i64();
    d.realized_cost = r.i64();
    d.delivered_at = r.i64();
    deliveries_.push_back(d);
  }

  now_ = r.i64();
  next_injection_poll_ = r.i64();
  last_injection_time_ = r.i64();
  next_seq_ = r.u64();
  last_successful_ = r.u32();
  steps_since_prune_ = r.u64();
  // Telemetry, not state: the saved run counted the time-0 injections
  // this engine's constructor polled.
  pending_slots_ = pending_deliveries_ = pending_injections_ =
      pending_polls_skipped_ = 0;

  if (r.boolean() != cfg_.energy.enabled)
    throw_mismatch("energy accounting setting");
  if (cfg_.energy.enabled) {
    const std::uint64_t tx = r.u64();
    const std::uint64_t listen = r.u64();
    const std::uint64_t sleep = r.u64();
    if (tx != cfg_.energy.cost_transmit || listen != cfg_.energy.cost_listen ||
        sleep != cfg_.energy.cost_sleep)
      throw_mismatch("energy cost model");
    meter_.load_state(r);
  }
}

}  // namespace asyncmac::sim
