// asyncmac/channel/window.h
//
// One channel ledger's transmission window and the only implementation of
// the channel rules over it. channel::Ledger holds one Window and keeps,
// in front of it, the inline O(1) silence fast paths, the repeat-query
// memo and the batched telemetry.
//
// Layout: the window is begin-sorted and field-split — begins, ends,
// stations, packets and the per-entry flags each live in one flat array.
// Live entries occupy [head, size) of every array. Pruning advances head
// over the decided prefix (archiving it when history is kept), and the
// arrays are compacted once the dead prefix is at least kCompactMinDead
// entries and no shorter than the live tail: compaction costs amortized
// O(1) per entry, and after a prune fewer than max(kCompactMinDead,
// live) dead entries remain.
//
// The rules (paper Section II; see channel/ledger.h for the model):
//   * admission — on a k-restrained channel the on-air count at a
//     transmission's begin fixes kOk, kJammed or kRejected at add();
//     rejected entries are decided unsuccessful at once and invisible to
//     the overlap test and to feedback;
//   * success — [a, b) succeeds iff no other non-rejected entry overlaps
//     it, decided lazily once the caller's clock reaches b. The overlap
//     test starts from the entry's own index: only predecessors beginning
//     within max_duration() of a and successors beginning before b can
//     reach it;
//   * feedback — for a slot [s, t) only entries beginning in
//     (s - max_duration(), t) can overlap it or end inside (s, t], so a
//     binary seek plus that neighborhood scan answers ack/busy/silence in
//     O(log W + neighborhood);
//   * ack ownership — whether a station's transmission ending at a given
//     time succeeded, found by a backward scan that stops once begins
//     fall more than max_duration() before that end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/transmission.h"
#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::channel {

/// Cumulative channel statistics (survive pruning).
struct LedgerStats {
  std::uint64_t transmissions = 0;        ///< total transmissions registered
  std::uint64_t successful = 0;           ///< finalized successful
  std::uint64_t collided = 0;             ///< finalized unsuccessful
  std::uint64_t control_transmissions = 0;///< control ("empty signal") slots
  std::uint64_t successful_packets = 0;   ///< successful non-control
  Tick successful_packet_time = 0;  ///< total duration of successful
                                    ///< packet transmissions; the complement
                                    ///< is the paper's "wasted time" (Def. 2)
  Tick successful_control_time = 0;
  // Restrained channel (always 0 when k == 0). Rejected transmissions are
  // counted in `collided` too — they are decided-unsuccessful at add() —
  // so successful + collided still equals the decided count.
  std::uint64_t rejected = 0;  ///< suppressed over-capacity transmissions
  std::uint64_t jammed = 0;    ///< over-capacity transmissions sent anyway

  bool operator==(const LedgerStats&) const = default;
};

class Window {
 public:
  /// A dead prefix shorter than this is never compacted away.
  static constexpr std::size_t kCompactMinDead = 64;

  Window(bool keep_history, RestrainedSpec restrained)
      : restrained_(restrained), keep_history_(keep_history) {}

  /// Register [t.begin, t.end): begins non-decreasing across calls,
  /// durations positive, a valid station. Fixes the admission verdict,
  /// updates the stats and watermarks and appends the entry. Returns true
  /// iff the add raised max_duration(), which moves every feedback seek
  /// point (callers memoizing a scan must drop the memo).
  bool add(Transmission t);

  /// Decide success for every entry with end <= now.
  void finalize_until(Tick now);

  /// Feedback for a slot [s, t) the caller's fast paths could not decide:
  /// finalize through t, seek, scan. `scanned` receives the number of
  /// entries visited (rejected ones included).
  Feedback feedback(Tick s, Tick t, std::uint64_t& scanned);

  /// Did `station`'s transmission ending exactly at `end` succeed? The
  /// entry must be live and decided.
  bool transmission_successful(StationId station, Tick end) const;

  /// Finalize through `horizon`, then drop (and archive, when history is
  /// kept) the decided prefix ending at or before it. Returns the number
  /// of entries dropped.
  std::uint64_t prune_before(Tick horizon);

  std::size_t live() const noexcept { return begin_.size() - head_; }
  bool empty() const noexcept { return live() == 0; }
  /// Pruned entries still held in front of the live ones.
  std::size_t dead() const noexcept { return head_; }
  /// True when the decided-prefix cursor has reached the newest entry —
  /// finalize_until() then has nothing left to walk.
  bool all_finalized() const noexcept { return finalized_ == begin_.size(); }
  /// Largest end and largest duration ever added (0 before any add).
  Tick latest_end() const noexcept { return latest_end_; }
  Tick max_duration() const noexcept { return max_duration_; }
  const LedgerStats& stats() const noexcept { return stats_; }
  const RestrainedSpec& restrained() const noexcept { return restrained_; }

  /// The live entries, in begin order (a copy; not for hot paths).
  std::vector<Transmission> entries() const;
  /// Every pruned entry, in begin order (empty unless history is kept).
  const std::vector<Transmission>& history() const noexcept {
    return history_;
  }

  /// The ledger snapshot layout up to the telemetry deltas: the
  /// keep_history flag and restrained spec, the live entries, the
  /// finalized cursor, the archive, the stats and the watermarks. load
  /// refuses (kMismatch) a payload saved under a different keep_history
  /// flag or restrained spec, and (kCorrupt) counts or cursors no writer
  /// produces.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  Transmission entry(std::size_t i) const;
  /// Append `t` verbatim (flags included).
  void append(const Transmission& t);
  bool overlaps_other(std::size_t i) const;
  /// Restrained admission: pop stale ends, count the on-air entries at
  /// `begin`, record `end` when the entry reaches the medium.
  Admission admit(Tick begin, Tick end);

  std::vector<Tick> begin_;
  std::vector<Tick> end_;
  std::vector<StationId> station_;
  std::vector<PacketSeq> packet_;
  std::vector<std::uint8_t> is_control_;
  std::vector<std::uint8_t> successful_;
  std::vector<std::uint8_t> decided_;
  std::vector<std::uint8_t> admission_;
  std::size_t head_ = 0;       ///< [0, head_) pruned, awaiting compaction
  std::size_t finalized_ = 0;  ///< [head_, finalized_) decided

  std::vector<Transmission> history_;
  LedgerStats stats_;
  RestrainedSpec restrained_;
  /// Min-heap of non-rejected ends (restrained mode only); ends at or
  /// before a new begin are popped lazily. Not serialized: load rebuilds
  /// it from the live non-rejected entries, which is observably the same
  /// (pruned or popped ends lie at or below every future begin).
  std::vector<Tick> live_ends_;
  Tick last_begin_ = 0;
  Tick latest_end_ = 0;
  Tick max_duration_ = 0;
  bool keep_history_;
};

}  // namespace asyncmac::channel
