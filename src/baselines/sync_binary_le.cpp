#include "baselines/sync_binary_le.h"

#include "snapshot/state.h"

namespace asyncmac::baselines {

core::LeaderElectionFactory SyncBinaryLeAutomaton::factory() {
  return [](StationId id, std::uint32_t /*n*/, std::uint32_t /*bound_r*/) {
    return std::make_unique<SyncBinaryLeAutomaton>(id);
  };
}

SlotAction SyncBinaryLeAutomaton::phase_action() {
  ++slots_;
  return core::id_bit(id_, phase_) ? SlotAction::kListen
                                   : SlotAction::kTransmitPacket;
}

SlotAction SyncBinaryLeAutomaton::next(
    const std::optional<sim::SlotResult>& prev) {
  if (outcome_ != Outcome::kActive) return SlotAction::kListen;
  if (!prev) return phase_action();

  const bool transmitted = prev->action != SlotAction::kListen;
  switch (prev->feedback) {
    case Feedback::kAck:
      outcome_ = transmitted ? Outcome::kWon : Outcome::kEliminated;
      return SlotAction::kListen;
    case Feedback::kBusy:
      if (!transmitted) {
        outcome_ = Outcome::kEliminated;  // 0-stations exist; we are a 1
        return SlotAction::kListen;
      }
      break;  // we collided with another 0-station; stay alive
    case Feedback::kSilence:
      break;  // no 0-stations this phase; we are an alive 1
  }
  ++phase_;
  return phase_action();
}

SlotAction SyncBinaryLeProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (!automaton_) automaton_.emplace(ctx.id());
  SlotAction a = automaton_->next(prev);
  if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
    a = SlotAction::kTransmitControl;
  return a;
}

template <typename S, typename Self>
void SyncBinaryLeAutomaton::fields(S& s, Self& self) {
  field(s, self.id_);
  field(s, self.outcome_, Outcome::kEliminated);
  field(s, self.phase_);
  field(s, self.slots_);
}

void SyncBinaryLeAutomaton::save_state(snapshot::Writer& w) const {
  fields(w, *this);
}

void SyncBinaryLeAutomaton::load_state(snapshot::Reader& r) {
  fields(r, *this);
}

void SyncBinaryLeProtocol::save_state(snapshot::Writer& w) const {
  optional_section(w, automaton_);
}

void SyncBinaryLeProtocol::load_state(snapshot::Reader& r,
                                      sim::StationContext& ctx) {
  optional_section(r, automaton_,
                   [&ctx] { return SyncBinaryLeAutomaton(ctx.id()); });
}

}  // namespace asyncmac::baselines
