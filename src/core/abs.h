// asyncmac/core/abs.h
//
// ABS — Asymmetric Binary Search (Section III-A, Fig. 3): deterministic
// leader election / Single Successful Transmission on the partially
// asynchronous channel. Solves SST in O(R^2 log n) slots (Theorem 1).
//
// Automaton per station (labels follow Fig. 3):
//  (1) listen until the first silent slot (absorbs the tail of the
//      previous phase's transmissions, at most R+1 slots);
//  (2) b <- next bit of the station ID, least significant first (bits
//      beyond the ID's width read as 0; distinct IDs keep differing);
//  (3) if b = 0: listen 3R slots, or (4) if b = 1: listen 4R^2 + 3R
//      slots — abort to "exit by elimination" (6) on any busy slot;
//  (5) after a full silent listening run, transmit one slot: an ack means
//      "exit with winning" (7), otherwise advance to the next phase.
//
// The asymmetric thresholds make 0-bit stations transmit strictly earlier
// than 1-bit stations of the same phase regardless of (bounded) slot
// stretching, so 1-bit stations always hear the busy channel and drop out
// (Lemma 3) while all survivors stay phase-aligned within r time
// (Lemma 1).
//
// AbsAutomaton is an embeddable state machine (AO-ARRoW drives one as its
// leader-election subroutine); AbsProtocol adapts it to the engine's
// Protocol interface for standalone SST runs.
#pragma once

#include <cstdint>
#include <optional>

#include "core/bounds.h"
#include "core/leader_election.h"
#include "sim/protocol.h"
#include "util/types.h"

namespace asyncmac::core {

class AbsAutomaton final : public LeaderElection {
 public:
  using Outcome = LeaderElection::Outcome;

  struct Config {
    std::uint32_t id = 1;  ///< the station's ID (the value binary-searched)
    std::uint32_t R = 1;
    /// Listening thresholds; override only for ablation experiments.
    std::uint64_t threshold0 = 0;
    std::uint64_t threshold1 = 0;
  };

  /// The paper's parameterization: threshold0 = 3R, threshold1 = 4R^2+3R.
  static Config standard(std::uint32_t id, std::uint32_t R);

  explicit AbsAutomaton(const Config& config);

  /// Drive one slot boundary: process the previous slot's result (nullopt
  /// before the election's first slot) and return the next action.
  /// `transmit` actions must be mapped by the caller to packet or control
  /// transmissions. After the automaton leaves kActive it only listens.
  SlotAction next(const std::optional<sim::SlotResult>& prev) override;

  Outcome outcome() const noexcept override { return outcome_; }
  /// 0-based index of the current phase (= ID bit being compared).
  std::uint32_t phase() const noexcept { return phase_; }
  /// Slots consumed while the automaton was active.
  std::uint64_t slots() const noexcept override { return slots_; }

  std::unique_ptr<LeaderElection> clone() const override {
    return std::make_unique<AbsAutomaton>(*this);
  }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  /// The standard LeaderElectionFactory: ABS with the paper's thresholds.
  static LeaderElectionFactory factory();

 private:
  enum class State : std::uint8_t {
    kWaitSilence,  // box (1)
    kListenLoop,   // boxes (3)/(4)
    kTransmit,     // box (5): the slot in flight is our transmission
    kDone,
  };

  SlotAction begin_listen_loop();
  template <typename S, typename Self>
  static void fields(S& s, Self& self);

  Config cfg_;
  State state_ = State::kWaitSilence;
  Outcome outcome_ = Outcome::kActive;
  std::uint32_t phase_ = 0;
  std::uint64_t counter_ = 0;  // silent slots seen in the listening loop
  std::uint64_t target_ = 0;   // threshold for the current listening loop
  std::uint64_t slots_ = 0;
};

/// Standalone Protocol wrapper for SST experiments. The "message" of the
/// paper's SST problem is the head-of-queue packet; inject exactly one
/// packet per participating station at time 0. If the queue is empty the
/// winning transmission degrades to a control signal (pure leader
/// election), which standalone harnesses may allow.
class AbsProtocol final : public sim::Protocol {
 public:
  /// Default-constructed: standard thresholds, parameters taken from the
  /// StationContext on the first call.
  AbsProtocol() = default;
  /// Explicit thresholds (ablation).
  AbsProtocol(std::uint64_t threshold0, std::uint64_t threshold1);

  std::unique_ptr<sim::Protocol> clone() const override;
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "ABS"; }
  bool finished() const override {
    return automaton_ && !automaton_->active();
  }

  const AbsAutomaton* automaton() const { return automaton_ ? &*automaton_ : nullptr; }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  std::optional<std::uint64_t> override_t0_, override_t1_;
  std::optional<AbsAutomaton> automaton_;
};

}  // namespace asyncmac::core
