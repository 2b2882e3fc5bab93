// asyncmac/core/ao_arrow.h
//
// AO-ARRoW — Adaptive Order Asynchronous Round Robin Withholding
// (Section IV, Fig. 5): dynamic packet transmission with NO control
// messages (only genuine packets are ever transmitted); collisions may
// occur and are mitigated online. Universally stable for every injection
// rate rho < 1 (Theorem 3), with total queued cost bounded by L.
//
// Structure (box labels follow Fig. 5):
//  (1) begin iteration — a decision point between slots;
//  (2) with a non-empty queue and wait = 0, run a leader election (ABS);
//  (4) the winner transmits all packets in its queue, then sets
//      wait <- n-1 (it must sit out the next n-1 elections so nobody
//      starves);
//  (5) losers listen until the winner is decided (the election's first and
//      only ack) and then until the channel falls silent (the winner's
//      drain is a contiguous run of ack slots), then re-enter (1);
//  (3) ineligible or packet-less stations listen; each observed election
//      win decrements wait (6) and is followed by a listen-for-silence
//      (8); counting `threshold` consecutive silent slots proves no
//      election is in progress and resets wait (7);
//  (9) a station that saw the long silence listens threshold * R further
//      slots and then transmits one *packet* to re-synchronize: everyone
//      waiting to rejoin sees that transmission and starts a new election
//      together.
//
// The long-silence threshold must dominate any silent run inside a live
// election, converted to observer slots (factor R); the constants come
// from core/bounds.h.
#pragma once

#include <cstdint>
#include <optional>

#include "core/abs.h"
#include "sim/protocol.h"

namespace asyncmac::core {

class AoArrowProtocol final : public sim::Protocol {
 public:
  /// Observable state for tests and traces.
  enum class State : std::uint8_t {
    kInit,             ///< before the first slot
    kLeaderElection,   ///< box (2): ABS in flight
    kDrain,            ///< box (4): winner transmitting its queue
    kAwaitWinnerAck,   ///< box (5), stage 1: election undecided
    kAwaitSilence,     ///< boxes (5)/(8): winner draining, wait for quiet
    kListen,           ///< box (3)
    kSyncCountdown,    ///< box (9): counting threshold * R silent slots
    kSyncTransmit,     ///< box (9): our synchronizing packet is in flight
  };

  /// Default: ABS(R) as the Leader_Election(R) subroutine (the
  /// parameterization Theorem 3's constants assume). A custom factory
  /// lets experiments swap the election — e.g. the synchronous binary
  /// search, to demonstrate that an asynchrony-safe subroutine is
  /// load-bearing for R > 1.
  /// Ablation overrides for the wrapper constants; 0 selects the paper
  /// values (long_silence_threshold(R) and sync_countdown_slots(R)).
  /// Shrinking them below the paper values voids the no-mid-election-
  /// rejoin guarantee — bench_ablation quantifies the damage.
  struct Tuning {
    std::uint64_t long_silence_slots = 0;
    std::uint64_t sync_countdown_slots = 0;
  };

  AoArrowProtocol() = default;
  explicit AoArrowProtocol(LeaderElectionFactory le_factory)
      : le_factory_(std::move(le_factory)) {}
  explicit AoArrowProtocol(const Tuning& tuning) : tuning_(tuning) {}

  AoArrowProtocol(const AoArrowProtocol& other);
  AoArrowProtocol& operator=(const AoArrowProtocol&) = delete;

  std::unique_ptr<sim::Protocol> clone() const override;
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "AO-ARRoW"; }
  bool uses_control_messages() const override { return false; }

  State state() const noexcept { return state_; }
  std::uint32_t wait() const noexcept { return wait_; }
  std::uint64_t elections_entered() const noexcept { return elections_; }
  std::uint64_t elections_won() const noexcept { return wins_; }
  /// Box-7 events: long silences observed (phase boundaries of Fig. 4).
  std::uint64_t long_silences() const noexcept { return long_silences_; }
  /// Box-9 synchronizing packets sent.
  std::uint64_t sync_transmissions() const noexcept { return syncs_; }

  /// Checkpoint/resume. The election subroutine is restored through
  /// le_factory_ (the snapshot stores only its state, not its type), so a
  /// resumed run must be constructed with the same factory.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  SlotAction begin_iteration(sim::StationContext& ctx);
  SlotAction enter_leader_election(sim::StationContext& ctx);
  /// The snapshot section; make_le builds the election a load restores.
  template <typename S, typename Self, typename MakeLe>
  static void fields(S& s, Self& self, MakeLe&& make_le);

  State state_ = State::kInit;
  Tuning tuning_;
  LeaderElectionFactory le_factory_;     // null => ABS standard
  std::unique_ptr<LeaderElection> le_;
  std::uint32_t wait_ = 0;
  std::uint64_t silent_run_ = 0;
  std::uint64_t countdown_ = 0;
  std::uint64_t threshold_ = 0;       // set from R on first call
  std::uint64_t sync_countdown_ = 0;  // set from R on first call
  std::uint64_t elections_ = 0;
  std::uint64_t wins_ = 0;
  std::uint64_t long_silences_ = 0;
  std::uint64_t syncs_ = 0;
};

}  // namespace asyncmac::core
