// asyncmac/baselines/sync_binary_le.h
//
// Synchronous binary-search leader election (the Theta(log n) classic the
// paper cites for R = 1, refs. [20], [23]): one slot per ID bit, least
// significant first. In each phase every alive station whose current bit
// is 0 transmits; on the synchronous channel the feedback decides the
// phase globally —
//   ack     : the single transmitter won, everyone else is eliminated;
//   busy    : at least two 0-stations collided, all 1-stations drop out;
//   silence : no 0-stations, the 1-stations survive.
// Distinct IDs leave at most one survivor once the bits are exhausted;
// bits beyond the ID width read 0, so the survivor transmits alone and
// wins. Total slots <= bit_width(n) + 1.
//
// Correct only on the synchronous channel (R = 1) — the whole point of
// ABS is that this simple search breaks under slot stretching; the SST
// benchmarks use it as the R = 1 reference line, and AO-ARRoW can be
// instantiated over it (core::LeaderElection) to show that an
// asynchrony-safe subroutine is load-bearing.
#pragma once

#include "core/leader_election.h"
#include "sim/protocol.h"

namespace asyncmac::baselines {

/// The election automaton (embeddable in AO-ARRoW).
class SyncBinaryLeAutomaton final : public core::LeaderElection {
 public:
  explicit SyncBinaryLeAutomaton(std::uint32_t id) : id_(id) {}

  SlotAction next(const std::optional<sim::SlotResult>& prev) override;
  Outcome outcome() const noexcept override { return outcome_; }
  std::uint64_t slots() const noexcept override { return slots_; }
  std::unique_ptr<core::LeaderElection> clone() const override {
    return std::make_unique<SyncBinaryLeAutomaton>(*this);
  }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  static core::LeaderElectionFactory factory();

 private:
  SlotAction phase_action();
  template <typename S, typename Self>
  static void fields(S& s, Self& self);

  std::uint32_t id_;
  Outcome outcome_ = Outcome::kActive;
  std::uint32_t phase_ = 0;
  std::uint64_t slots_ = 0;
};

/// Standalone Protocol wrapper for SST experiments at R = 1.
class SyncBinaryLeProtocol final : public sim::Protocol {
 public:
  using Outcome = core::LeaderElection::Outcome;
  /// Backwards-compatible aliases used by tests and benches.
  static constexpr Outcome kActive = Outcome::kActive;

  std::unique_ptr<sim::Protocol> clone() const override {
    return std::make_unique<SyncBinaryLeProtocol>(*this);
  }
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "sync-binary-LE"; }
  bool finished() const override {
    return automaton_ && automaton_->outcome() != Outcome::kActive;
  }

  Outcome outcome() const {
    return automaton_ ? automaton_->outcome() : Outcome::kActive;
  }
  std::uint64_t slots() const { return automaton_ ? automaton_->slots() : 0; }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  std::optional<SyncBinaryLeAutomaton> automaton_;
};

}  // namespace asyncmac::baselines
