#include "core/abs.h"

#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::core {

LeaderElectionFactory AbsAutomaton::factory() {
  return [](StationId id, std::uint32_t /*n*/, std::uint32_t bound_r) {
    return std::make_unique<AbsAutomaton>(standard(id, bound_r));
  };
}

AbsAutomaton::Config AbsAutomaton::standard(std::uint32_t id,
                                            std::uint32_t R) {
  Config c;
  c.id = id;
  c.R = R;
  c.threshold0 = abs_threshold0(R);
  c.threshold1 = abs_threshold1(R);
  return c;
}

AbsAutomaton::AbsAutomaton(const Config& config) : cfg_(config) {
  AM_REQUIRE(cfg_.R >= 1, "R must be >= 1");
  AM_REQUIRE(cfg_.threshold0 >= 1 && cfg_.threshold1 >= 1,
             "thresholds must be positive");
}

SlotAction AbsAutomaton::begin_listen_loop() {
  target_ = id_bit(cfg_.id, phase_) ? cfg_.threshold1 : cfg_.threshold0;
  counter_ = 0;
  state_ = State::kListenLoop;
  return SlotAction::kListen;
}

SlotAction AbsAutomaton::next(const std::optional<sim::SlotResult>& prev) {
  if (outcome_ != Outcome::kActive) return SlotAction::kListen;

  if (!prev) {
    // First slot of the election: box (1).
    state_ = State::kWaitSilence;
    ++slots_;
    return SlotAction::kListen;
  }

  SlotAction action = SlotAction::kListen;
  switch (state_) {
    case State::kWaitSilence:
      switch (prev->feedback) {
        case Feedback::kSilence:
          action = begin_listen_loop();
          break;
        case Feedback::kBusy:
          action = SlotAction::kListen;  // keep waiting for silence
          break;
        case Feedback::kAck:
          // Someone else's transmission already succeeded: the election is
          // decided; leave quietly.
          outcome_ = Outcome::kEliminated;
          state_ = State::kDone;
          return SlotAction::kListen;
      }
      break;

    case State::kListenLoop:
      if (prev->feedback == Feedback::kSilence) {
        if (++counter_ >= target_) {
          state_ = State::kTransmit;
          action = SlotAction::kTransmitPacket;  // caller may remap
        } else {
          action = SlotAction::kListen;
        }
      } else {
        // busy or ack: another station got there first (Lemma 3) or won.
        outcome_ = Outcome::kEliminated;
        state_ = State::kDone;
        return SlotAction::kListen;
      }
      break;

    case State::kTransmit:
      if (prev->feedback == Feedback::kAck) {
        outcome_ = Outcome::kWon;
        state_ = State::kDone;
        return SlotAction::kListen;
      }
      // Collision: stay alive, advance to the next bit (next phase).
      ++phase_;
      state_ = State::kWaitSilence;
      action = SlotAction::kListen;
      break;

    case State::kDone:
      return SlotAction::kListen;
  }
  ++slots_;
  return action;
}

template <typename S, typename Self>
void AbsAutomaton::fields(S& s, Self& self) {
  field(s, self.cfg_.id);
  field(s, self.cfg_.R);
  field(s, self.cfg_.threshold0);
  field(s, self.cfg_.threshold1);
  field(s, self.state_, State::kDone);
  field(s, self.outcome_, Outcome::kEliminated);
  field(s, self.phase_);
  field(s, self.counter_);
  field(s, self.target_);
  field(s, self.slots_);
}

void AbsAutomaton::save_state(snapshot::Writer& w) const { fields(w, *this); }

void AbsAutomaton::load_state(snapshot::Reader& r) { fields(r, *this); }

AbsProtocol::AbsProtocol(std::uint64_t threshold0, std::uint64_t threshold1)
    : override_t0_(threshold0), override_t1_(threshold1) {}

std::unique_ptr<sim::Protocol> AbsProtocol::clone() const {
  return std::make_unique<AbsProtocol>(*this);
}

SlotAction AbsProtocol::next_action(const std::optional<sim::SlotResult>& prev,
                                    sim::StationContext& ctx) {
  if (!automaton_) {
    AM_CHECK(!prev);
    auto cfg = AbsAutomaton::standard(ctx.id(), ctx.bound_r());
    if (override_t0_) cfg.threshold0 = *override_t0_;
    if (override_t1_) cfg.threshold1 = *override_t1_;
    automaton_.emplace(cfg);
  }
  SlotAction a = automaton_->next(prev);
  if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
    a = SlotAction::kTransmitControl;  // pure leader election (no message)
  return a;
}

void AbsProtocol::save_state(snapshot::Writer& w) const {
  optional_section(w, automaton_);
}

void AbsProtocol::load_state(snapshot::Reader& r, sim::StationContext& ctx) {
  // Any valid config works as the emplacement seed — load_state
  // overwrites it with the snapshotted one.
  optional_section(r, automaton_, [&ctx] {
    return AbsAutomaton(AbsAutomaton::standard(ctx.id(), ctx.bound_r()));
  });
}

}  // namespace asyncmac::core
