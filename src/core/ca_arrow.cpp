#include "core/ca_arrow.h"

#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::core {

std::unique_ptr<sim::Protocol> CaArrowProtocol::clone() const {
  return std::make_unique<CaArrowProtocol>(*this);
}

SlotAction CaArrowProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  const std::uint64_t turns = automaton_.turns_taken;
  SlotAction action;
  if (automaton_.state == State::kInit) {
    AM_CHECK(!prev);
    action = automaton_.start(ctx.id(), ctx.bound_r());
  } else {
    AM_CHECK(prev.has_value());
    action = automaton_.next(ctx.id(), ctx.n(), ctx.bound_r(),
                             ctx.queue_empty(), prev->feedback);
  }
  if (automaton_.turns_taken != turns) {
    static auto& counter =
        telemetry::Registry::global().counter("core.ca_arrow.turns");
    counter.add(automaton_.turns_taken - turns);
  }
  return action;
}

void CaArrowProtocol::save_state(snapshot::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(automaton_.state));
  w.u32(automaton_.turn);
  w.u64(automaton_.countdown);
  w.boolean(automaton_.heard_transmission);
  w.u64(automaton_.turns_taken);
}

void CaArrowProtocol::load_state(snapshot::Reader& r, sim::StationContext&) {
  automaton_.state = static_cast<State>(r.u8());
  automaton_.turn = r.u32();
  automaton_.countdown = r.u64();
  automaton_.heard_transmission = r.boolean();
  automaton_.turns_taken = r.u64();
}

}  // namespace asyncmac::core
