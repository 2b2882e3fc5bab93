// asyncmac/core/adaptive_abs.h
//
// EXPERIMENTAL EXTENSION (Section VII open problem: "one may assume that
// the bound R exists but is not known"). AdaptiveAbsProtocol runs ABS
// with a doubling estimate of R:
//
//   * epoch k uses R_est = 2^k thresholds;
//   * a station concludes its estimate was too small when its election
//     does not resolve within the phase budget any correct election needs
//     (more than bit_width(n) + 1 phases — under a correct estimate each
//     ID bit is consumed by exactly one phase, Theorem 1's proof);
//   * it then doubles R_est, listens until it has heard
//     3 * R_est consecutive silent slots (a re-synchronization barrier in
//     the spirit of AO-ARRoW's long-silence rule) and restarts ABS from
//     the least significant bit;
//   * stations eliminated under a too-small estimate also rejoin at the
//     barrier unless a winner was already announced (they track the ack).
//
// Status: this is a heuristic, NOT covered by the paper's proofs. The
// test suite exercises it across the adversary families of this repo and
// bench_unknown_r quantifies the doubling penalty against known-R ABS;
// the paper's lower-bound machinery (mirror executions) still applies to
// it, as any deterministic algorithm.
#pragma once

#include <cstdint>
#include <optional>

#include "core/abs.h"
#include "sim/protocol.h"

namespace asyncmac::core {

class AdaptiveAbsProtocol final : public sim::Protocol {
 public:
  enum class Status : std::uint8_t { kRunning, kWon, kObservedWinner };

  /// initial_estimate >= 1; each failed epoch doubles it.
  explicit AdaptiveAbsProtocol(std::uint32_t initial_estimate = 1)
      : r_est_(initial_estimate) {}

  std::unique_ptr<sim::Protocol> clone() const override {
    return std::make_unique<AdaptiveAbsProtocol>(*this);
  }
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "adaptive-ABS"; }
  bool finished() const override { return status_ != Status::kRunning; }

  Status status() const noexcept { return status_; }
  std::uint32_t r_estimate() const noexcept { return r_est_; }
  std::uint32_t epochs() const noexcept { return epochs_; }
  std::uint64_t total_slots() const noexcept { return slots_; }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  SlotAction restart_barrier();
  /// The snapshot section; make_abs builds the election a load restores.
  template <typename S, typename Self, typename MakeAbs>
  static void fields(S& s, Self& self, MakeAbs&& make_abs);

  enum class State : std::uint8_t { kInit, kElecting, kBarrier };

  State state_ = State::kInit;
  Status status_ = Status::kRunning;
  std::optional<AbsAutomaton> abs_;
  std::uint32_t r_est_;
  std::uint32_t epochs_ = 0;
  std::uint32_t max_phases_ = 0;  // set from n on first call
  std::uint64_t silent_run_ = 0;
  std::uint64_t barrier_target_ = 0;
  std::uint64_t slots_ = 0;
};

}  // namespace asyncmac::core
