// asyncmac/sim/protocol.h
//
// The deterministic-automaton interface every MAC protocol implements.
// A protocol is driven entirely by slot boundaries: before each of its
// slots it commits to listen or transmit, and at the end of the slot it
// receives the channel feedback. This mirrors the paper's model where all
// local computation happens between consecutive slots and all channel
// operations span exactly one slot.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sim/station.h"
#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::core {
struct CaArrowAutomaton;
}

namespace asyncmac::sim {

/// What happened in the slot that just ended, from the station's own
/// point of view. Note the deliberate absence of any timing information —
/// stations cannot measure slot lengths (Section II).
struct SlotResult {
  SlotAction action = SlotAction::kListen;  ///< the station's own action
  Feedback feedback = Feedback::kSilence;   ///< channel feedback at slot end
  /// True iff `action` was kTransmitPacket and the transmission succeeded
  /// (equivalently feedback == kAck for a transmitter); the engine has
  /// already removed the delivered packet from the queue.
  bool delivered = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Deep copy, including all mutable automaton state. Required so that
  /// adaptive adversaries (the Theorem-2 mirror-execution driver) can run
  /// virtual continuations of a station without disturbing the real one.
  virtual std::unique_ptr<Protocol> clone() const = 0;

  /// Decide the action for the station's next slot. Called once with
  /// `prev == nullopt` before the first slot, then after every slot with
  /// that slot's result. Must be deterministic unless the protocol is
  /// explicitly randomized (ctx.rng()).
  virtual SlotAction next_action(const std::optional<SlotResult>& prev,
                                 StationContext& ctx) = 0;

  virtual std::string name() const = 0;

  /// True when the protocol may emit kTransmitControl slots. The engine
  /// uses this to enforce the model split of Table I (algorithms "allowed
  /// control messages" vs not).
  virtual bool uses_control_messages() const { return false; }

  /// One-shot protocols (leader election / SST) report completion so that
  /// drivers can stop early; ongoing PT protocols never finish.
  virtual bool finished() const { return false; }

  /// The protocol's CA-ARRoW automaton (core/ca_arrow.h), null when it
  /// runs none. When every station returns one, the engine's dense loop
  /// steps these in place instead of calling next_action.
  virtual core::CaArrowAutomaton* ca_arrow_automaton() { return nullptr; }

  /// Checkpoint/resume (docs/CHECKPOINT.md): serialize every mutable
  /// automaton field. The defaults are correct ONLY for protocols with no
  /// mutable state outside StationContext (the engine snapshots the queue
  /// and ctx RNG itself); any protocol with member state must override
  /// both. load_state is called on a freshly constructed protocol built
  /// from the same configuration; `ctx` provides id/n/R for protocols
  /// that rebuild sub-automata (e.g. AO-ARRoW's leader-election factory).
  virtual void save_state(snapshot::Writer& w) const { (void)w; }
  virtual void load_state(snapshot::Reader& r, StationContext& ctx) {
    (void)r;
    (void)ctx;
  }
};

/// Creates a fresh protocol instance — the registry's entries
/// (analysis/registry.h) and the lower-bound drivers' input
/// (adversary/mirror.h, adversary/collision_forcer.h), which instantiate
/// protocols repeatedly and in virtual copies.
using ProtocolMaker = std::function<std::unique_ptr<Protocol>()>;

}  // namespace asyncmac::sim
