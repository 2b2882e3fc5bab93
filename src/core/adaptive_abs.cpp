#include "core/adaptive_abs.h"

#include <bit>

#include "core/bounds.h"
#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::core {

SlotAction AdaptiveAbsProtocol::restart_barrier() {
  state_ = State::kBarrier;
  silent_run_ = 0;
  // AO-ARRoW's long-silence rule: this many consecutive silent slots
  // prove no election is in progress when r_est_ >= r. The estimate was
  // just doubled, so legitimate mid-election silent runs (at most
  // r * (4R^2 + 4R + 2) observer slots) cannot reach the barrier and an
  // eliminated station never rejoins a live election it lost fairly — it
  // simply waits there until the winner's ack.
  barrier_target_ = long_silence_threshold(r_est_);
  return SlotAction::kListen;
}

SlotAction AdaptiveAbsProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (status_ != Status::kRunning) return SlotAction::kListen;
  ++slots_;

  if (state_ == State::kInit) {
    AM_CHECK(!prev);
    max_phases_ = static_cast<std::uint32_t>(std::bit_width(ctx.n())) + 1;
    ++epochs_;
    abs_.emplace(AbsAutomaton::standard(ctx.id(), r_est_));
    state_ = State::kElecting;
    SlotAction a = abs_->next(std::nullopt);
    if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
      a = SlotAction::kTransmitControl;
    return a;
  }
  AM_CHECK(prev.has_value());

  if (state_ == State::kBarrier) {
    if (prev->feedback == Feedback::kAck) {
      // Someone won while we waited to rejoin.
      status_ = Status::kObservedWinner;
      return SlotAction::kListen;
    }
    if (prev->feedback == Feedback::kSilence) {
      if (++silent_run_ >= barrier_target_) {
        ++epochs_;
        abs_.emplace(AbsAutomaton::standard(ctx.id(), r_est_));
        state_ = State::kElecting;
        SlotAction a = abs_->next(std::nullopt);
        if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
          a = SlotAction::kTransmitControl;
        return a;
      }
    } else {
      silent_run_ = 0;
    }
    return SlotAction::kListen;
  }

  // kElecting.
  SlotAction a = abs_->next(prev);
  switch (abs_->outcome()) {
    case AbsAutomaton::Outcome::kWon:
      status_ = Status::kWon;
      return SlotAction::kListen;
    case AbsAutomaton::Outcome::kEliminated:
      // Under a correct estimate this is final. Under a too-small one the
      // elimination may be spurious; if the deciding feedback was the
      // winner's ack we are done, otherwise wait at the barrier and try
      // again with a doubled estimate.
      if (prev->feedback == Feedback::kAck) {
        status_ = Status::kObservedWinner;
        return SlotAction::kListen;
      }
      r_est_ *= 2;
      return restart_barrier();
    case AbsAutomaton::Outcome::kActive:
      if (abs_->phase() >= max_phases_) {
        // More phases than any correct election needs: R_est < r.
        r_est_ *= 2;
        return restart_barrier();
      }
      if (a == SlotAction::kTransmitPacket && ctx.queue_empty())
        a = SlotAction::kTransmitControl;
      return a;
  }
  AM_CHECK(false);
  return SlotAction::kListen;
}

template <typename S, typename Self, typename MakeAbs>
void AdaptiveAbsProtocol::fields(S& s, Self& self, MakeAbs&& make_abs) {
  field(s, self.state_, State::kBarrier);
  field(s, self.status_, Status::kObservedWinner);
  optional_section(s, self.abs_, make_abs);
  field(s, self.r_est_);
  field(s, self.epochs_);
  field(s, self.max_phases_);
  field(s, self.silent_run_);
  field(s, self.barrier_target_);
  field(s, self.slots_);
}

void AdaptiveAbsProtocol::save_state(snapshot::Writer& w) const {
  fields(w, *this, nullptr);
}

void AdaptiveAbsProtocol::load_state(snapshot::Reader& r,
                                     sim::StationContext& ctx) {
  fields(r, *this, [&ctx] {
    return AbsAutomaton(AbsAutomaton::standard(ctx.id(), ctx.bound_r()));
  });
}

}  // namespace asyncmac::core
