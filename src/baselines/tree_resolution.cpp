#include "baselines/tree_resolution.h"

#include <bit>

#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::baselines {

TreeResolutionAutomaton::TreeResolutionAutomaton(std::uint32_t id,
                                                 std::uint32_t n)
    : id_(id), bit_(std::bit_width(n)), counter_(0) {
  AM_REQUIRE(id >= 1 && id <= n, "id must be in [1, n]");
}

core::LeaderElectionFactory TreeResolutionAutomaton::factory() {
  return [](StationId id, std::uint32_t n, std::uint32_t /*bound_r*/) {
    return std::make_unique<TreeResolutionAutomaton>(id, n);
  };
}

SlotAction TreeResolutionAutomaton::decide() {
  ++slots_;
  return counter_ == 0 ? SlotAction::kTransmitPacket : SlotAction::kListen;
}

SlotAction TreeResolutionAutomaton::next(
    const std::optional<sim::SlotResult>& prev) {
  if (outcome_ != Outcome::kActive) return SlotAction::kListen;
  if (!prev) return decide();  // round 1: every contender transmits

  const bool transmitted = prev->action != SlotAction::kListen;
  switch (prev->feedback) {
    case Feedback::kAck:
      // First success ends the election (SST semantics).
      outcome_ = transmitted ? Outcome::kWon : Outcome::kEliminated;
      return SlotAction::kListen;

    case Feedback::kBusy:
      if (transmitted) {
        // Our group collided: split on the next ID bit (MSB first); the
        // 0-half retries immediately, the 1-half waits on the stack.
        AM_CHECK_MSG(bit_ > 0, "distinct IDs must split before bits run out");
        --bit_;
        if ((id_ >> bit_) & 1U) counter_ = 1;
      } else {
        // A group below us collided and split: our stack deepens.
        ++counter_;
      }
      return decide();

    case Feedback::kSilence:
      // The scheduled group was empty: the stack pops.
      AM_CHECK(!transmitted);
      --counter_;
      AM_CHECK(counter_ >= 0);
      return decide();
  }
  AM_CHECK(false);
  return SlotAction::kListen;
}

SlotAction TreeResolutionProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (!automaton_) automaton_.emplace(ctx.id(), ctx.n());
  SlotAction a = automaton_->next(prev);
  if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
    a = SlotAction::kTransmitControl;
  return a;
}

template <typename S, typename Self>
void TreeResolutionAutomaton::fields(S& s, Self& self) {
  field(s, self.id_);
  field(s, self.bit_);
  field(s, self.counter_);
  field(s, self.outcome_, Outcome::kEliminated);
  field(s, self.slots_);
}

void TreeResolutionAutomaton::save_state(snapshot::Writer& w) const {
  fields(w, *this);
}

void TreeResolutionAutomaton::load_state(snapshot::Reader& r) {
  fields(r, *this);
}

void TreeResolutionProtocol::save_state(snapshot::Writer& w) const {
  optional_section(w, automaton_);
}

void TreeResolutionProtocol::load_state(snapshot::Reader& r,
                                        sim::StationContext& ctx) {
  optional_section(r, automaton_, [&ctx] {
    return TreeResolutionAutomaton(ctx.id(), ctx.n());
  });
}

}  // namespace asyncmac::baselines
