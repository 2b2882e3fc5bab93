#include "core/ca_arrow.h"

#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::core {

std::unique_ptr<sim::Protocol> CaArrowProtocol::clone() const {
  return std::make_unique<CaArrowProtocol>(*this);
}

void CaArrowProtocol::advance_turn(const sim::StationContext& ctx) {
  turn_ = (turn_ % ctx.n()) + 1;
}

SlotAction CaArrowProtocol::begin_phase(sim::StationContext& ctx) {
  if (turn_ == ctx.id()) {
    ++turns_taken_;
    static auto& turns =
        telemetry::Registry::global().counter("core.ca_arrow.turns");
    turns.add();
    countdown_ = 2ULL * ctx.bound_r();
    state_ = State::kCountdown;
  } else {
    heard_transmission_ = false;
    state_ = State::kAwaitSequenceEnd;
  }
  return SlotAction::kListen;
}

// KEEP IN SYNC: sim::Engine's dense path ports this automaton —
// next_action, begin_phase, advance_turn AND the save_state field order
// below are copied onto per-station arrays in sim/engine_dense.cpp
// (pinned there by byte-identity tests against this implementation). A
// semantic or serialization change here must be mirrored there.
SlotAction CaArrowProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (state_ == State::kInit) {
    AM_CHECK(!prev);
    turn_ = 1;
    return begin_phase(ctx);
  }
  AM_CHECK(prev.has_value());

  switch (state_) {
    case State::kInit:
      break;  // unreachable

    case State::kCountdown:
      if (--countdown_ > 0) return SlotAction::kListen;
      if (ctx.queue_empty()) {
        state_ = State::kNoise;
        return SlotAction::kTransmitControl;
      }
      state_ = State::kDrain;
      return SlotAction::kTransmitPacket;

    case State::kNoise:
      // Our empty signal completed (collision-freedom makes it an ack,
      // which tests assert at the trace level).
      advance_turn(ctx);
      return begin_phase(ctx);

    case State::kDrain:
      // Keep transmitting while packets remain — including packets that
      // arrived during the drain ("transmits all the packets waiting in
      // i's queue").
      if (!ctx.queue_empty()) return SlotAction::kTransmitPacket;
      advance_turn(ctx);
      return begin_phase(ctx);

    case State::kAwaitSequenceEnd:
      if (prev->feedback != Feedback::kSilence) {
        heard_transmission_ = true;
        return SlotAction::kListen;
      }
      if (heard_transmission_) {
        advance_turn(ctx);
        return begin_phase(ctx);
      }
      return SlotAction::kListen;
  }
  AM_CHECK(false);
  return SlotAction::kListen;
}

void CaArrowProtocol::save_state(snapshot::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  w.u32(turn_);
  w.u64(countdown_);
  w.boolean(heard_transmission_);
  w.u64(turns_taken_);
}

void CaArrowProtocol::load_state(snapshot::Reader& r, sim::StationContext&) {
  state_ = static_cast<State>(r.u8());
  turn_ = r.u32();
  countdown_ = r.u64();
  heard_transmission_ = r.boolean();
  turns_taken_ = r.u64();
}

}  // namespace asyncmac::core
