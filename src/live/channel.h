// asyncmac/live/channel.h
//
// Arrival-driven channel model for the live daemon. The simulation
// ledger (channel/ledger.h) requires every transmission's end time at
// add() time — the engine knows it, because the slot policy fixes the
// slot length at the slot's begin event. A live daemon does not: a
// station's transmission ends when its SlotEnd datagram *arrives*, so
// intervals must stay open until then.
//
// LiveChannel therefore keeps two kinds of entries in its begin-sorted
// window:
//   * open     — begin known, end unknown (stored as kTickInfinity);
//   * closed   — end fixed by the SlotEnd arrival, success decided.
//
// It answers the exact same questions as the ledger, with the same
// half-open interval rules (channel/transmission.h):
//   ack     — a successful transmission ended at e in (s, t];
//   busy    — otherwise, some transmission overlaps [s, t);
//   silence — otherwise.
// An open transmission can never ack (its end lies in the future) but
// does make overlapping slots busy: treating its unknown end as +inf is
// exact, because the daemon closes every transmission whose end is <= t
// before answering a feedback query at t (wave phase A, live/daemon.h).
//
// Bounded scans. No query walks the whole window. A closed entry that
// begins at or before x - D, with D the longest closed duration so far,
// ended by x — the rule channel::Window seeks with. So feedback(s, t)
// visits only closed entries beginning in (s - D, t), close_tx and the
// restrained on-air census the neighborhood of the entry's begin, and
// transmission_successful scans back from the newest entry until begins
// fall more than D before its end. Open entries, at most one per
// station, are also kept in a side list: an open entry is busy iff it
// begins before t and never acks, so the side list answers for the ones
// older than the neighborhood. Feedback visits are counted in the
// write-only live.channel_scanned counter. The window cannot simply be a
// channel::Window: Window::add needs the end, which over UDP is the
// SlotEnd arrival.
//
// Stats parity: LedgerStats fields are bumped at the same logical points
// as the ledger — transmissions/control_transmissions at registration,
// success/collision tallies when the interval's end passes — so a
// virtual-clock live run reports byte-identical channel stats to
// sim::Engine (pinned by tests/test_live_channel and the differential).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "util/types.h"

namespace asyncmac::live {

class LiveChannel {
 public:
  /// `restrained` selects the k-restrained channel; admission verdicts
  /// are decided at begin_tx (the on-air census needs no end times: open
  /// entries count with end = +inf, exactly like the ledger's heap of
  /// not-yet-expired ends). Default is unrestrained.
  explicit LiveChannel(channel::RestrainedSpec restrained = {})
      : restrained_(restrained) {}

  const channel::RestrainedSpec& restrained() const noexcept {
    return restrained_;
  }

  /// Register an open transmission starting at `begin`. Begins must be
  /// non-decreasing across calls (the daemon processes waves in arrival
  /// order); a station may have at most one open transmission. On a
  /// restrained channel the admission verdict is fixed here; a rejected
  /// transmission is decided unsuccessful immediately (it still awaits
  /// its SlotEnd to fix the interval's end, but never touches the
  /// medium: overlap scans and feedback skip it).
  void begin_tx(StationId station, Tick begin, bool is_control,
                PacketSeq packet);

  /// Close `station`'s open transmission at `end` (its SlotEnd arrival),
  /// decide success against every other known interval and update stats.
  /// Returns whether the transmission was successful. Requires end >
  /// begin and that every transmission with begin < end has already been
  /// registered (the daemon's wave ordering guarantees this).
  bool close_tx(StationId station, Tick end);

  /// Exact feedback for slot [s, t). Requires every transmission ending
  /// at or before t to be closed already (phase A before phase B).
  Feedback feedback(Tick s, Tick t) const;

  /// Success verdict of `station`'s closed transmission ending at `end`
  /// (the daemon's ack-ownership check under a reject-mode restrained
  /// channel — mirrors Ledger::transmission_successful).
  bool transmission_successful(StationId station, Tick end) const;

  /// Drop closed transmissions with end <= horizon; the daemon passes the
  /// minimum current-slot begin over all stations, so no future feedback
  /// query or success decision can reference a dropped interval (the same
  /// argument as Ledger::prune_before). Open entries are never dropped.
  void prune_before(Tick horizon);

  bool has_open(StationId station) const;

  const channel::LedgerStats& stats() const noexcept { return stats_; }
  std::size_t window_size() const noexcept { return window_.size(); }

 private:
  /// An open entry: its station and its position counted from the first
  /// entry ever registered (window_ index + popped_).
  struct OpenTx {
    StationId station;
    std::uint64_t seq;
  };

  const channel::Transmission& entry(const OpenTx& o) const;
  /// Position of `station`'s open entry in open_ (open_.size() if none).
  std::size_t open_index(StationId station) const;
  /// Index of the first entry beginning after from - max_closed_: no
  /// closed entry before it is on air at `from` or ends after it.
  std::size_t first_reaching(Tick from) const;

  std::deque<channel::Transmission> window_;  ///< begin-sorted; open: end=inf
  std::vector<OpenTx> open_;  ///< the open entries, in no particular order
  std::uint64_t popped_ = 0;  ///< entries pruned off the window's front
  Tick max_closed_ = 0;       ///< longest closed duration so far
  channel::RestrainedSpec restrained_;
  channel::LedgerStats stats_;
  Tick last_begin_ = 0;
};

}  // namespace asyncmac::live
