#include "core/ca_arrow.h"

#include "snapshot/state.h"
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

namespace {

template <typename S, typename Automaton>
void automaton_fields(S& s, Automaton& a) {
  field(s, a.state, CaArrowProtocol::State::kAwaitSequenceEnd);
  field(s, a.turn);
  field(s, a.countdown);
  field(s, a.heard_transmission);
  field(s, a.turns_taken);
}

}  // namespace

void CaArrowProtocol::save_state(snapshot::Writer& w) const {
  automaton_fields(w, automaton_);
}

void CaArrowProtocol::load_state(snapshot::Reader& r, sim::StationContext&) {
  automaton_fields(r, automaton_);
}

}  // namespace asyncmac::core
