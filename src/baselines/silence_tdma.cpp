#include "baselines/silence_tdma.h"

#include "snapshot/state.h"

namespace asyncmac::baselines {

std::unique_ptr<sim::Protocol> SilenceCountTdmaProtocol::clone() const {
  return std::make_unique<SilenceCountTdmaProtocol>(*this);
}

SlotAction SilenceCountTdmaProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (prev) {
    if (prev->action != SlotAction::kListen ||
        prev->feedback != Feedback::kSilence) {
      silent_run_ = 0;  // own transmission or busy/ack resets the run
    } else {
      ++silent_run_;
    }
  }
  if (!ctx.queue_empty() &&
      silent_run_ % ctx.n() == ctx.id() % ctx.n()) {
    return SlotAction::kTransmitPacket;
  }
  return SlotAction::kListen;
}

void SilenceCountTdmaProtocol::save_state(snapshot::Writer& w) const {
  field(w, silent_run_);
}

void SilenceCountTdmaProtocol::load_state(snapshot::Reader& r,
                                          sim::StationContext&) {
  field(r, silent_run_);
}

}  // namespace asyncmac::baselines
