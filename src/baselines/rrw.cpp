#include "baselines/rrw.h"

#include "snapshot/state.h"

namespace asyncmac::baselines {

std::unique_ptr<sim::Protocol> RrwProtocol::clone() const {
  return std::make_unique<RrwProtocol>(*this);
}

SlotAction RrwProtocol::next_action(const std::optional<sim::SlotResult>& prev,
                                    sim::StationContext& ctx) {
  if (prev && prev->feedback == Feedback::kSilence)
    turn_ = (turn_ % ctx.n()) + 1;
  if (turn_ == ctx.id() && !ctx.queue_empty())
    return SlotAction::kTransmitPacket;
  return SlotAction::kListen;
}

void RrwProtocol::save_state(snapshot::Writer& w) const { field(w, turn_); }

void RrwProtocol::load_state(snapshot::Reader& r, sim::StationContext&) {
  field(r, turn_);
}

}  // namespace asyncmac::baselines
