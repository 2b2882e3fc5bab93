// asyncmac/live/station.h
//
// Sans-IO station client of live mode (docs/LIVE.md). A StationMachine
// wraps one unmodified sim::Protocol automaton and maps the engine's
// slot-boundary events onto timers and datagrams:
//
//   Join ->                      (retransmitted until Welcome)
//        <- Welcome              build context + protocol, push t=0
//                                injections, first next_action
//   Boundary(i, action) ->
//        <- Grant(i, length)     arm the slot timer
//   [timer fires]
//   SlotEnd(i) ->
//        <- Feedback(i, fb, delivered, injections)
//                                push injections, pop on delivery,
//                                next_action -> Boundary(i+1, ...)
//   ...
//        <- Fin(ok)              run complete (or poisoned)
//
// The protocol observes exactly what it observes under sim::Engine: its
// StationContext (id, n, R, rng seed from Welcome, own queue) and the
// per-slot SlotResult. Queue mutations replay the engine's order — all
// pending injections are pushed before a delivered packet is popped —
// so under the virtual clock the automaton's decision sequence is
// bit-identical to a simulated run. Packet seq numbers are not shipped
// (stations cannot observe them); the daemon's mirror holds the real ones.
//
// Loss handling: every request (Join/Boundary/SlotEnd) is retransmitted
// after retry_ticks without a reply, up to max_retries consecutive times,
// then the machine gives up with exit code 1 (a dead daemon must not hang
// a station forever). Replies are matched by slot index; stale or
// malformed datagrams are dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "live/wire.h"
#include "sim/protocol.h"
#include "sim/station.h"
#include "util/types.h"

namespace asyncmac::live {

struct StationConfig {
  StationId id = 1;
  std::string name = "station";
  /// Reply timeout before a retransmit. Virtual-clock runs never hit it
  /// (replies land on the same tick); UDP runs should set it to a few
  /// RTTs worth of ticks.
  Tick retry_ticks = units(64);
  /// Consecutive unanswered retransmits before giving up (exit 1).
  int max_retries = 25;
};

class StationMachine {
 public:
  explicit StationMachine(StationConfig cfg);
  ~StationMachine();

  struct Actions {
    /// The datagram to send the daemon, empty when there is none (a
    /// station sends at most one per call). A view of the machine's own
    /// buffer: valid until the machine's next call.
    std::span<const std::uint8_t> send;
    /// Absolute tick of the next wanted wake-up (slot end or retry),
    /// nullopt when finished.
    std::optional<Tick> timer;
    bool finished = false;
    int exit_code = 0;
  };

  /// Send the initial Join and arm the retry timer.
  Actions on_start(Tick now);
  /// Feed one received datagram. Malformed input is dropped.
  Actions on_datagram(Tick now, const std::uint8_t* data, std::size_t size);
  Actions on_datagram(Tick now, std::span<const std::uint8_t> d) {
    return on_datagram(now, d.data(), d.size());
  }
  /// Clock callback; fires slot ends and retransmits that are due.
  Actions on_timer(Tick now);

  bool finished() const noexcept { return phase_ == Phase::kDone; }
  int exit_code() const noexcept { return exit_code_; }
  /// Slots fully settled (Feedback applied).
  std::uint64_t slots_completed() const noexcept { return completed_; }
  std::uint64_t retransmits() const noexcept { return retransmits_; }
  StationId id() const noexcept { return cfg_.id; }

 private:
  enum class Phase : std::uint8_t {
    kJoining,        ///< Join sent, awaiting Welcome
    kAwaitGrant,     ///< Boundary sent, awaiting Grant
    kInSlot,         ///< slot timer armed, awaiting its expiry
    kAwaitFeedback,  ///< SlotEnd sent, awaiting Feedback
    kDone,
  };

  void handle_welcome(Tick now, const Msg& m, Actions& out);
  void handle_grant(Tick now, const Msg& m, Actions& out);
  void handle_feedback(Tick now, const Msg& m, Actions& out);
  void send_request(Tick now, const Msg& m, Actions& out);
  void announce_boundary(Tick now, SlotAction action, Actions& out);
  void give_up(int code, Actions& out);
  void fill_timer(Actions& out) const;

  StationConfig cfg_;
  Phase phase_ = Phase::kJoining;
  std::optional<sim::StationContext> ctx_;
  std::unique_ptr<sim::Protocol> protocol_;
  SlotIndex slot_index_ = 0;
  SlotAction action_ = SlotAction::kListen;
  std::vector<std::uint8_t> last_sent_;  ///< what Actions::send views
  Msg received_;  ///< decoded into, its storage kept across datagrams
  std::optional<Tick> retry_deadline_;
  std::optional<Tick> slot_deadline_;
  int retries_ = 0;
  int exit_code_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t retransmits_ = 0;
};

}  // namespace asyncmac::live
