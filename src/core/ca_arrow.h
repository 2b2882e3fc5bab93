// asyncmac/core/ca_arrow.h
//
// CA-ARRoW — Collision-Avoidance Asynchronous Round Robin Withholding
// (Section VI, Fig. 6): dynamic packet transmission that NEVER generates a
// collision, at the price of control messages ("empty signals" by stations
// with empty queues). Universally stable (Theorem 6) with total queued
// cost bounded by (2nR^2(1+rho) + b) / (1-rho).
//
// All stations cycle a shared `turn` variable, kept consistent purely from
// channel feedback:
//  * the turn holder listens 2R of its own slots, then transmits — all of
//    its queued packets back-to-back, or a single empty signal when its
//    queue is empty — and advances its own turn immediately after;
//  * every other station listens until "the next sequence of consecutive
//    transmissions ends" (at least one busy/ack slot followed by a silent
//    slot) and then advances its turn.
//
// Why no listener can miscount sequences: transmissions inside one turn
// are contiguous in continuous time, so no listener slot inside the
// sequence is silent; and the 2R-slot wait of the next holder creates a
// gap of at least 2R time units, which (listener slots being at most R)
// contains at least one fully silent slot of every listener. Hence all
// stations agree on `turn`, only the holder ever transmits, and no two
// transmissions overlap.
#pragma once

#include <cstdint>

#include "sim/protocol.h"
#include "util/check.h"
#include "util/types.h"

namespace asyncmac::core {

/// The CA-ARRoW automaton of one station, defined once: CaArrowProtocol
/// runs one, and the engine's dense loop (sim/engine_dense.cpp) steps
/// each station's own copy in place through
/// sim::Protocol::ca_arrow_automaton(). Header-only, so sim reaches it
/// without linking core. It records its turns in turns_taken and touches
/// no telemetry: each caller adds the change to core.ca_arrow.turns.
struct CaArrowAutomaton {
  enum class State : std::uint8_t {
    kInit,
    kCountdown,         ///< our turn: waiting 2R slots before transmitting
    kDrain,             ///< our turn: transmitting all queued packets
    kNoise,             ///< our turn: the single empty-signal slot in flight
    kAwaitSequenceEnd,  ///< not our turn: listening for busy...silence
  };

  std::uint64_t countdown = 0;
  std::uint64_t turns_taken = 0;
  StationId turn = 1;
  State state = State::kInit;
  bool heard_transmission = false;

  /// The action for station `id`'s first slot (leaves kInit).
  SlotAction start(StationId id, std::uint32_t r) {
    turn = 1;
    return begin_phase(id, r);
  }

  /// The action for station `id`'s next slot, given the feedback of the
  /// slot that just ended and whether the queue is empty now (after that
  /// slot's delivery and the injections up to its end).
  SlotAction next(StationId id, std::uint32_t n, std::uint32_t r,
                  bool queue_empty, Feedback feedback) {
    switch (state) {
      case State::kInit:
        break;  // start() leaves it before the first slot

      case State::kCountdown:
        if (--countdown > 0) return SlotAction::kListen;
        if (queue_empty) {
          state = State::kNoise;
          return SlotAction::kTransmitControl;
        }
        state = State::kDrain;
        return SlotAction::kTransmitPacket;

      case State::kNoise:
        // Our empty signal completed (collision-freedom makes it an ack,
        // which tests assert at the trace level).
        return pass_turn(id, n, r);

      case State::kDrain:
        // Keep transmitting while packets remain — including packets that
        // arrived during the drain ("transmits all the packets waiting in
        // i's queue").
        if (!queue_empty) return SlotAction::kTransmitPacket;
        return pass_turn(id, n, r);

      case State::kAwaitSequenceEnd:
        if (feedback != Feedback::kSilence) {
          heard_transmission = true;
          return SlotAction::kListen;
        }
        if (heard_transmission) return pass_turn(id, n, r);
        return SlotAction::kListen;
    }
    AM_CHECK(false);  // kInit, or a state byte no writer produces
    return SlotAction::kListen;
  }

  /// Hand the turn to the next station in cyclic order and begin the
  /// phase that follows.
  SlotAction pass_turn(StationId id, std::uint32_t n, std::uint32_t r) {
    turn = turn % n + 1;
    return begin_phase(id, r);
  }

  /// The turn holder waits 2R slots; every other station listens for
  /// the end of the next transmission sequence.
  SlotAction begin_phase(StationId id, std::uint32_t r) {
    if (turn == id) {
      ++turns_taken;
      countdown = 2ULL * r;
      state = State::kCountdown;
    } else {
      heard_transmission = false;
      state = State::kAwaitSequenceEnd;
    }
    return SlotAction::kListen;
  }
};

class CaArrowProtocol final : public sim::Protocol {
 public:
  using State = CaArrowAutomaton::State;

  CaArrowProtocol() = default;

  std::unique_ptr<sim::Protocol> clone() const override;
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "CA-ARRoW"; }
  bool uses_control_messages() const override { return true; }
  CaArrowAutomaton* ca_arrow_automaton() override { return &automaton_; }

  State state() const noexcept { return automaton_.state; }
  StationId turn() const noexcept { return automaton_.turn; }
  std::uint64_t turns_taken() const noexcept {
    return automaton_.turns_taken;
  }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  CaArrowAutomaton automaton_;
};

}  // namespace asyncmac::core
