// asyncmac/baselines/tree_resolution.h
//
// Capetanakis tree resolution (the paper's ref. [20], "Tree algorithms
// for packet broadcast channels") — the classic synchronous contention
// resolver: all contenders transmit; on a collision the group splits by
// the next ID bit, the 0-half retries immediately while the 1-half (and
// every later group) waits, tracked by a local stack counter that every
// station updates from the shared ternary feedback (collision = busy,
// success = ack, idle = silence).
//
// Used here as an SST baseline at R = 1: the first success ends the
// election. Depth is at most the ID width, so SST completes in O(n)
// slots worst case and O(log n) when few stations contend. Like the
// synchronous binary search, it relies on globally simultaneous feedback
// and is NOT correct under bounded asynchrony — another data point for
// why ABS exists.
#pragma once

#include "core/leader_election.h"
#include "sim/protocol.h"

namespace asyncmac::baselines {

class TreeResolutionAutomaton final : public core::LeaderElection {
 public:
  TreeResolutionAutomaton(std::uint32_t id, std::uint32_t n);

  SlotAction next(const std::optional<sim::SlotResult>& prev) override;
  Outcome outcome() const noexcept override { return outcome_; }
  std::uint64_t slots() const noexcept override { return slots_; }
  std::unique_ptr<core::LeaderElection> clone() const override {
    return std::make_unique<TreeResolutionAutomaton>(*this);
  }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  static core::LeaderElectionFactory factory();

 private:
  SlotAction decide();
  template <typename S, typename Self>
  static void fields(S& s, Self& self);

  std::uint32_t id_;
  std::uint32_t bit_;       // next ID bit (from the most significant)
  std::int64_t counter_;    // 0 = in the transmitting group; >0 = waiting
  Outcome outcome_ = Outcome::kActive;
  std::uint64_t slots_ = 0;
};

/// Standalone Protocol wrapper (R = 1 experiments).
class TreeResolutionProtocol final : public sim::Protocol {
 public:
  std::unique_ptr<sim::Protocol> clone() const override {
    return std::make_unique<TreeResolutionProtocol>(*this);
  }
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "tree-resolution"; }
  bool finished() const override {
    return automaton_ &&
           automaton_->outcome() != core::LeaderElection::Outcome::kActive;
  }

  const TreeResolutionAutomaton* automaton() const {
    return automaton_ ? &*automaton_ : nullptr;
  }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  std::optional<TreeResolutionAutomaton> automaton_;
};

}  // namespace asyncmac::baselines
