#include "core/ao_arrow.h"

#include "core/bounds.h"
#include "snapshot/state.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::core {

namespace {
// Phase-transition telemetry for AO-ARRoW (docs/OBSERVABILITY.md).
struct AoArrowTelemetry {
  telemetry::Counter& elections =
      telemetry::Registry::global().counter("core.ao_arrow.elections");
  telemetry::Counter& wins =
      telemetry::Registry::global().counter("core.ao_arrow.wins");
  telemetry::Counter& long_silences =
      telemetry::Registry::global().counter("core.ao_arrow.long_silences");
  telemetry::Counter& syncs =
      telemetry::Registry::global().counter("core.ao_arrow.syncs");

  static AoArrowTelemetry& get() {
    static AoArrowTelemetry t;
    return t;
  }
};
}  // namespace

AoArrowProtocol::AoArrowProtocol(const AoArrowProtocol& other)
    : state_(other.state_),
      tuning_(other.tuning_),
      le_factory_(other.le_factory_),
      le_(other.le_ ? other.le_->clone() : nullptr),
      wait_(other.wait_),
      silent_run_(other.silent_run_),
      countdown_(other.countdown_),
      threshold_(other.threshold_),
      sync_countdown_(other.sync_countdown_),
      elections_(other.elections_),
      wins_(other.wins_),
      long_silences_(other.long_silences_),
      syncs_(other.syncs_) {}

std::unique_ptr<sim::Protocol> AoArrowProtocol::clone() const {
  return std::make_unique<AoArrowProtocol>(*this);
}

SlotAction AoArrowProtocol::enter_leader_election(sim::StationContext& ctx) {
  ++elections_;
  AoArrowTelemetry::get().elections.add();
  le_ = le_factory_ ? le_factory_(ctx.id(), ctx.n(), ctx.bound_r())
                    : AbsAutomaton::factory()(ctx.id(), ctx.n(),
                                              ctx.bound_r());
  state_ = State::kLeaderElection;
  return le_->next(std::nullopt);
}

SlotAction AoArrowProtocol::begin_iteration(sim::StationContext& ctx) {
  // Box (1): pure decision point, consumes no slot by itself.
  if (!ctx.queue_empty() && wait_ == 0) return enter_leader_election(ctx);
  state_ = State::kListen;
  silent_run_ = 0;
  return SlotAction::kListen;
}

SlotAction AoArrowProtocol::next_action(
    const std::optional<sim::SlotResult>& prev, sim::StationContext& ctx) {
  if (state_ == State::kInit) {
    AM_CHECK(!prev);
    threshold_ = tuning_.long_silence_slots
                     ? tuning_.long_silence_slots
                     : long_silence_threshold(ctx.bound_r());
    sync_countdown_ = tuning_.sync_countdown_slots
                          ? tuning_.sync_countdown_slots
                          : sync_countdown_slots(ctx.bound_r());
    return begin_iteration(ctx);
  }
  AM_CHECK(prev.has_value());

  switch (state_) {
    case State::kInit:
      break;  // unreachable; handled above

    case State::kLeaderElection: {
      const SlotAction action = le_->next(prev);
      switch (le_->outcome()) {
        case LeaderElection::Outcome::kActive:
          // ABS transmissions carry genuine packets; the queue cannot be
          // empty inside an election (it only shrinks via the winning
          // transmission, which ends the election).
          if (action == SlotAction::kTransmitPacket)
            AM_CHECK(!ctx.queue_empty());
          return action;
        case LeaderElection::Outcome::kWon:
          // The winning transmission already delivered one packet
          // (prev->delivered). Box (4): drain the rest.
          ++wins_;
          AoArrowTelemetry::get().wins.add();
          if (!ctx.queue_empty()) {
            state_ = State::kDrain;
            return SlotAction::kTransmitPacket;
          }
          wait_ = ctx.n() - 1;
          return begin_iteration(ctx);
        case LeaderElection::Outcome::kEliminated:
          // Box (5). If this very feedback was an ack the winner is
          // already decided; otherwise wait for the deciding ack first.
          state_ = (prev->feedback == Feedback::kAck)
                       ? State::kAwaitSilence
                       : State::kAwaitWinnerAck;
          return SlotAction::kListen;
      }
      break;
    }

    case State::kDrain:
      // A collided drain slot (possible while rejoining stations
      // synchronize) leaves the packet queued; keep transmitting.
      if (!ctx.queue_empty()) return SlotAction::kTransmitPacket;
      wait_ = ctx.n() - 1;
      return begin_iteration(ctx);

    case State::kAwaitWinnerAck:
      // During a live election every transmission either collides (busy)
      // or wins (first ack): the first ack marks the winner.
      if (prev->feedback == Feedback::kAck) state_ = State::kAwaitSilence;
      return SlotAction::kListen;

    case State::kAwaitSilence:
      // The winner's drain is contiguous in time, so a silent slot can
      // only appear after its last packet.
      if (prev->feedback == Feedback::kSilence) return begin_iteration(ctx);
      return SlotAction::kListen;

    case State::kListen:  // box (3)
      if (prev->feedback == Feedback::kAck) {
        // Box (6): a station won a leader election.
        if (wait_ > 0) --wait_;
        state_ = State::kAwaitSilence;
        return SlotAction::kListen;
      }
      if (prev->feedback == Feedback::kBusy) {
        silent_run_ = 0;
        return SlotAction::kListen;
      }
      if (++silent_run_ >= threshold_) {
        // Box (7): long silence proves no election is in progress.
        ++long_silences_;
        AoArrowTelemetry::get().long_silences.add();
        wait_ = 0;
        silent_run_ = 0;
        state_ = State::kSyncCountdown;
        countdown_ = sync_countdown_;
      }
      return SlotAction::kListen;

    case State::kSyncCountdown:
      if (prev->feedback != Feedback::kSilence) {
        // Somebody synchronized first — rejoin immediately (box 9's
        // "on hearing such a transmission").
        return begin_iteration(ctx);
      }
      if (--countdown_ == 0) {
        if (!ctx.queue_empty()) {
          state_ = State::kSyncTransmit;
          ++syncs_;
          AoArrowTelemetry::get().syncs.add();
          return SlotAction::kTransmitPacket;
        }
        // Nothing to transmit; re-evaluate from the top.
        return begin_iteration(ctx);
      }
      return SlotAction::kListen;

    case State::kSyncTransmit:
      // Our synchronizing packet went out (delivered or collided with a
      // fellow rejoiner); either way a new election round starts now.
      return begin_iteration(ctx);
  }
  AM_CHECK(false);
  return SlotAction::kListen;
}

template <typename S, typename Self, typename MakeLe>
void AoArrowProtocol::fields(S& s, Self& self, MakeLe&& make_le) {
  field(s, self.state_, State::kSyncTransmit);
  optional_section(s, self.le_, make_le);
  field(s, self.wait_);
  field(s, self.silent_run_);
  field(s, self.countdown_);
  field(s, self.threshold_);
  field(s, self.sync_countdown_);
  field(s, self.elections_);
  field(s, self.wins_);
  field(s, self.long_silences_);
  field(s, self.syncs_);
}

void AoArrowProtocol::save_state(snapshot::Writer& w) const {
  fields(w, *this, nullptr);
}

void AoArrowProtocol::load_state(snapshot::Reader& r,
                                 sim::StationContext& ctx) {
  fields(r, *this, [&] {
    return le_factory_ ? le_factory_(ctx.id(), ctx.n(), ctx.bound_r())
                       : AbsAutomaton::factory()(ctx.id(), ctx.n(),
                                                 ctx.bound_r());
  });
}

}  // namespace asyncmac::core
