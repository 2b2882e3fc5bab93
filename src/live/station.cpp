#include "live/station.h"

#include "analysis/registry.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::live {

namespace {

struct StationTelemetry {
  telemetry::Counter& rx =
      telemetry::Registry::global().counter("live.datagrams_rx");
  telemetry::Counter& tx =
      telemetry::Registry::global().counter("live.datagrams_tx");
  telemetry::Counter& retransmits =
      telemetry::Registry::global().counter("live.retransmits");
  telemetry::Counter& decode_errors =
      telemetry::Registry::global().counter("live.decode_errors");

  static StationTelemetry& get() {
    static StationTelemetry t;
    return t;
  }
};

}  // namespace

StationMachine::StationMachine(StationConfig cfg) : cfg_(std::move(cfg)) {
  AM_REQUIRE(cfg_.id >= 1, "station id must be >= 1");
  AM_REQUIRE(cfg_.retry_ticks >= 1, "retry timeout must be positive");
  AM_REQUIRE(cfg_.max_retries >= 1, "need at least one retry");
}

StationMachine::~StationMachine() = default;

void StationMachine::fill_timer(Actions& out) const {
  if (phase_ == Phase::kDone) return;
  if (slot_deadline_ &&
      (!retry_deadline_ || *slot_deadline_ <= *retry_deadline_))
    out.timer = slot_deadline_;
  else
    out.timer = retry_deadline_;
}

void StationMachine::send_request(Tick now, const Msg& m, Actions& out) {
  encode(m, last_sent_);
  out.send = last_sent_;
  StationTelemetry::get().tx.add();
  retries_ = 0;
  retry_deadline_ = now + cfg_.retry_ticks;
}

void StationMachine::give_up(int code, Actions& out) {
  phase_ = Phase::kDone;
  exit_code_ = code;
  retry_deadline_.reset();
  slot_deadline_.reset();
  out.finished = true;
  out.exit_code = code;
}

StationMachine::Actions StationMachine::on_start(Tick now) {
  Actions out;
  AM_CHECK(phase_ == Phase::kJoining && last_sent_.empty());
  Msg join;
  join.type = MsgType::kJoin;
  join.station = cfg_.id;
  join.name = cfg_.name;
  send_request(now, join, out);
  fill_timer(out);
  return out;
}

void StationMachine::announce_boundary(Tick now, SlotAction action,
                                       Actions& out) {
  ++slot_index_;
  action_ = action;
  phase_ = Phase::kAwaitGrant;
  Msg b;
  b.type = MsgType::kBoundary;
  b.station = cfg_.id;
  b.slot_index = slot_index_;
  b.action = action;
  send_request(now, b, out);
}

void StationMachine::handle_welcome(Tick now, const Msg& m, Actions& out) {
  if (phase_ != Phase::kJoining) return;  // duplicate
  if (m.station != cfg_.id || m.n < 1 || m.n > kMaxStations ||
      cfg_.id > m.n || m.bound_r < 1)
    return;
  // The registry builds every station's automaton alike; this station
  // builds only its own.
  std::unique_ptr<sim::Protocol> proto;
  try {
    proto = analysis::make_protocol(m.name);
  } catch (const std::invalid_argument&) {
    return;  // unknown protocol name: not a Welcome from our daemon
  }
  ctx_.emplace(cfg_.id, m.n, m.bound_r, m.rng_seed);
  protocol_ = std::move(proto);
  for (const InjectionDelta& d : m.injections) {
    sim::Packet p;
    p.seq = 0;  // seqs stay daemon-side; protocols cannot observe them
    p.station = cfg_.id;
    p.injected_at = d.injected_at;
    p.cost = d.cost;
    ctx_->push(p);
  }
  const SlotAction first = protocol_->next_action(std::nullopt, *ctx_);
  announce_boundary(now, first, out);
}

void StationMachine::handle_grant(Tick now, const Msg& m, Actions& out) {
  (void)out;
  if (phase_ != Phase::kAwaitGrant || m.slot_index != slot_index_) return;
  if (m.length < 1) return;  // nonsense grant; wait for a valid one
  phase_ = Phase::kInSlot;
  // The slot runs [grant arrival, arrival + length) on the station's
  // clock. Under the virtual clock the grant arrives at the boundary
  // tick itself, so the local slot matches the daemon's exactly; over
  // UDP the offset is the RTT, surfaced as live.slot_timer_drift.
  slot_deadline_ = now + m.length;
  retry_deadline_.reset();
  retries_ = 0;
}

void StationMachine::handle_feedback(Tick now, const Msg& m, Actions& out) {
  if (phase_ != Phase::kAwaitFeedback || m.slot_index != slot_index_) return;
  // Engine queue-mutation order: poll pushes happen before the delivery
  // pop at the same event, and the delivered packet is the queue front.
  for (const InjectionDelta& d : m.injections) {
    sim::Packet p;
    p.seq = 0;
    p.station = cfg_.id;
    p.injected_at = d.injected_at;
    p.cost = d.cost;
    ctx_->push(p);
  }
  if (m.delivered) {
    if (ctx_->queue_empty()) return;  // desynced daemon; ignore
    ctx_->pop_front();
  }
  ++completed_;
  const sim::SlotResult result{action_, m.feedback, m.delivered};
  const SlotAction next = protocol_->next_action(result, *ctx_);
  announce_boundary(now, next, out);
}

StationMachine::Actions StationMachine::on_datagram(Tick now,
                                                    const std::uint8_t* data,
                                                    std::size_t size) {
  Actions out;
  if (phase_ == Phase::kDone) {
    out.finished = true;
    out.exit_code = exit_code_;
    return out;
  }
  Msg& m = received_;
  try {
    decode(data, size, m);
  } catch (const snapshot::SnapshotError&) {
    StationTelemetry::get().decode_errors.add();
    fill_timer(out);
    return out;
  }
  StationTelemetry::get().rx.add();
  switch (m.type) {
    case MsgType::kWelcome: handle_welcome(now, m, out); break;
    case MsgType::kGrant: handle_grant(now, m, out); break;
    case MsgType::kFeedback: handle_feedback(now, m, out); break;
    case MsgType::kFin:
      give_up(m.ok ? 0 : 1, out);
      return out;
    default: break;  // station->daemon types echoed back: drop
  }
  fill_timer(out);
  return out;
}

StationMachine::Actions StationMachine::on_timer(Tick now) {
  Actions out;
  if (phase_ == Phase::kDone) {
    out.finished = true;
    out.exit_code = exit_code_;
    return out;
  }
  if (phase_ == Phase::kInSlot && slot_deadline_ && now >= *slot_deadline_) {
    slot_deadline_.reset();
    phase_ = Phase::kAwaitFeedback;
    Msg e;
    e.type = MsgType::kSlotEnd;
    e.station = cfg_.id;
    e.slot_index = slot_index_;
    send_request(now, e, out);
  } else if (retry_deadline_ && now >= *retry_deadline_) {
    if (++retries_ > cfg_.max_retries) {
      give_up(1, out);
      return out;
    }
    out.send = last_sent_;
    ++retransmits_;
    StationTelemetry::get().tx.add();
    StationTelemetry::get().retransmits.add();
    retry_deadline_ = now + cfg_.retry_ticks;
  }
  fill_timer(out);
  return out;
}

}  // namespace asyncmac::live
