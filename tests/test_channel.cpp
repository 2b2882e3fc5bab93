// Unit tests for the channel model: exact overlap semantics, success
// finalization, the ack/busy/silence feedback truth table (Section II),
// pruning and statistics, the Window kernels, the Window's seek and
// finalize against a re-walking reference, and the dense path's gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "channel/window.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::channel {
namespace {

constexpr Tick U = kTicksPerUnit;

Transmission tx(StationId s, Tick begin, Tick end, bool control = false) {
  Transmission t;
  t.station = s;
  t.begin = begin;
  t.end = end;
  t.is_control = control;
  return t;
}

// ---------------------------------------------------------------- overlap

TEST(Overlap, ProperOverlap) {
  EXPECT_TRUE(intervals_overlap(0, 10, 5, 15));
  EXPECT_TRUE(intervals_overlap(5, 15, 0, 10));
  EXPECT_TRUE(intervals_overlap(0, 10, 2, 8));  // containment
}

TEST(Overlap, TouchingEndpointsDoNotOverlap) {
  EXPECT_FALSE(intervals_overlap(0, 10, 10, 20));
  EXPECT_FALSE(intervals_overlap(10, 20, 0, 10));
}

TEST(Overlap, DisjointIntervals) {
  EXPECT_FALSE(intervals_overlap(0, 10, 11, 20));
}

// --------------------------------------------------------------- feedback

TEST(Ledger, SilenceWhenNothingTransmitted) {
  Ledger ledger;
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kSilence);
}

TEST(Ledger, LoneTransmissionAcksItsOwnSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // The transmitter's slot [0, U): its own success ends inside -> ack.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kAck);
}

TEST(Ledger, ListenerHearsAckWhenSuccessEndsInsideItsSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // Listener slot [0, 2U) contains the end at U -> ack.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kAck);
}

TEST(Ledger, EndExactlyAtSlotEndCountsAsInThatSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // Listener slot [0, U): end at U is charged to (0, U] -> ack.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kAck);
  // Next slot [U, 2U): the end at U belongs to the previous slot.
  EXPECT_EQ(ledger.feedback(U, 2 * U), Feedback::kSilence);
}

TEST(Ledger, BusyWhileTransmissionOngoing) {
  Ledger ledger;
  ledger.add(tx(1, 0, 3 * U));
  // A slot that overlaps but does not contain the end -> busy.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kBusy);
  EXPECT_EQ(ledger.feedback(U, 2 * U), Feedback::kBusy);
  // The slot containing the end gets the ack.
  EXPECT_EQ(ledger.feedback(2 * U, 3 * U), Feedback::kAck);
}

TEST(Ledger, CollisionGivesBusyNotAck) {
  Ledger ledger;
  ledger.add(tx(1, 0, 2 * U));
  ledger.add(tx(2, U, 3 * U));
  // Both transmissions overlap: no ack anywhere.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kBusy);   // tx1's slot
  EXPECT_EQ(ledger.feedback(U, 3 * U), Feedback::kBusy);   // tx2's slot
  EXPECT_EQ(ledger.feedback(0, 4 * U), Feedback::kBusy);   // observer
  EXPECT_EQ(ledger.stats().collided, 2u);
  EXPECT_EQ(ledger.stats().successful, 0u);
}

TEST(Ledger, BackToBackTransmissionsBothSucceed) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, U, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_EQ(ledger.stats().successful, 2u);
  EXPECT_EQ(ledger.stats().collided, 0u);
  // A slot covering both ends still reports ack.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kAck);
}

TEST(Ledger, AckDominatesBusyInMixedSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));          // successful, ends at U
  ledger.add(tx(2, 2 * U, 4 * U));  // collides with tx3
  ledger.add(tx(3, 3 * U, 5 * U));
  // Observer slot [0, 5U): a successful transmission ended inside -> ack
  // takes precedence over the later collision noise.
  EXPECT_EQ(ledger.feedback(0, 5 * U), Feedback::kAck);
}

TEST(Ledger, SilenceBetweenTransmissions) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 5 * U, 6 * U));
  EXPECT_EQ(ledger.feedback(2 * U, 3 * U), Feedback::kSilence);
}

TEST(Ledger, TransmissionStartingAtSlotEndDoesNotAffectIt) {
  Ledger ledger;
  ledger.add(tx(1, U, 2 * U));
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kSilence);
}

// ------------------------------------------------------- success decision

TEST(Ledger, SuccessDecidableAtEndDespiteLaterQueries) {
  Ledger ledger;
  ledger.add(tx(1, 0, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_TRUE(ledger.transmission_successful(1, 2 * U));
  // A transmission starting exactly at the end does not change that.
  ledger.add(tx(2, 2 * U, 3 * U));
  ledger.finalize_until(3 * U);
  EXPECT_TRUE(ledger.transmission_successful(1, 2 * U));
  EXPECT_TRUE(ledger.transmission_successful(2, 3 * U));
}

TEST(Ledger, NestedTransmissionCollidesBoth) {
  Ledger ledger;
  ledger.add(tx(1, 0, 10 * U));
  ledger.add(tx(2, 4 * U, 5 * U));
  ledger.finalize_until(10 * U);
  EXPECT_FALSE(ledger.transmission_successful(1, 10 * U));
  EXPECT_FALSE(ledger.transmission_successful(2, 5 * U));
}

TEST(Ledger, ThreeWayCollision) {
  Ledger ledger;
  ledger.add(tx(1, 0, 3 * U));
  ledger.add(tx(2, U, 4 * U));
  ledger.add(tx(3, 2 * U, 5 * U));
  ledger.finalize_until(5 * U);
  EXPECT_EQ(ledger.stats().collided, 3u);
}

TEST(Ledger, ChainOfPairwiseOverlapsAllFail) {
  Ledger ledger;
  // 1 overlaps 2, 2 overlaps 3, but 1 and 3 are disjoint: still all fail
  // because success requires no overlap with ANY transmission.
  ledger.add(tx(1, 0, 2 * U));
  ledger.add(tx(2, U, 4 * U));
  ledger.add(tx(3, 3 * U, 5 * U));
  ledger.finalize_until(5 * U);
  EXPECT_EQ(ledger.stats().collided, 3u);
  EXPECT_EQ(ledger.stats().successful, 0u);
}

// ------------------------------------------------------------------ stats

TEST(Ledger, StatsDistinguishControlFromPackets) {
  Ledger ledger;
  ledger.add(tx(1, 0, U, /*control=*/true));
  ledger.add(tx(2, 2 * U, 4 * U, /*control=*/false));
  ledger.finalize_until(4 * U);
  const auto& s = ledger.stats();
  EXPECT_EQ(s.transmissions, 2u);
  EXPECT_EQ(s.control_transmissions, 1u);
  EXPECT_EQ(s.successful, 2u);
  EXPECT_EQ(s.successful_packets, 1u);
  EXPECT_EQ(s.successful_packet_time, 2 * U);
  EXPECT_EQ(s.successful_control_time, U);
}

TEST(Ledger, StatsSurvivePruning) {
  Ledger ledger;
  for (int i = 0; i < 10; ++i)
    ledger.add(tx(1, 2 * i * U, (2 * i + 1) * U));
  ledger.finalize_until(100 * U);
  ledger.prune_before(100 * U);
  EXPECT_TRUE(ledger.window().empty());
  EXPECT_EQ(ledger.stats().successful, 10u);
  EXPECT_EQ(ledger.stats().successful_packet_time, 10 * U);
}

TEST(Ledger, HistoryRetainedWhenRequested) {
  Ledger ledger(/*keep_history=*/true);
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 2 * U, 3 * U));
  ledger.finalize_until(3 * U);
  ledger.prune_before(3 * U);
  EXPECT_EQ(ledger.full_history().size(), 2u);
  EXPECT_TRUE(ledger.full_history()[0].successful);
}

TEST(Ledger, PruneKeepsUndecidedTransmissions) {
  Ledger ledger;
  ledger.add(tx(1, 0, 10 * U));  // still in flight at horizon 5U
  ledger.prune_before(5 * U);
  EXPECT_EQ(ledger.window().size(), 1u);
}

// ------------------------------------------------------------- invariants

TEST(Ledger, RejectsOutOfOrderBegins) {
  Ledger ledger;
  ledger.add(tx(1, 5 * U, 6 * U));
  EXPECT_THROW(ledger.add(tx(2, 4 * U, 7 * U)), std::logic_error);
}

TEST(Ledger, RejectsEmptyInterval) {
  Ledger ledger;
  EXPECT_THROW(ledger.add(tx(1, U, U)), std::logic_error);
}

TEST(Ledger, RejectsInvalidStation) {
  Ledger ledger;
  EXPECT_THROW(ledger.add(tx(kInvalidStation, 0, U)), std::logic_error);
}

TEST(Ledger, LatestEndTracksMaximum) {
  Ledger ledger;
  ledger.add(tx(1, 0, 5 * U));
  ledger.add(tx(2, U, 2 * U));
  EXPECT_EQ(ledger.latest_end(), 5 * U);
}

TEST(Ledger, EqualBeginTransmissionsCollide) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 0, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_EQ(ledger.stats().collided, 2u);
}

TEST(Ledger, IdenticalIntervalDifferentStationsCollide) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 0, U));
  ledger.finalize_until(U);
  EXPECT_EQ(ledger.stats().collided, 2u);
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kBusy);
}

// ----------------------------------------------------------- scan cost

// feedback() seeks its begin-sorted window with lower_bound, so the
// entries one query visits depend on the slot's neighborhood, not on the
// window size. Counted, not timed: a scan from the window front would
// visit every entry and make long history-keeping runs quadratic.
TEST(Ledger, FeedbackScanDoesNotGrowWithTheWindow) {
  telemetry::set_enabled(true);
  auto& scanned =
      telemetry::Registry::global().counter("channel.feedback_scanned");
  std::vector<std::uint64_t> counts;
  for (const std::uint64_t size : {100u, 10000u, 1000000u}) {
    // Four stations taking turns with back-to-back unit slots: the
    // steady state of a saturated stability run.
    Ledger ledger;
    Tick now = 0;
    for (std::uint64_t i = 0; i < size; ++i) {
      ledger.add(tx(static_cast<StationId>(1 + i % 4), now, now + U));
      now += U;
    }
    ledger.finalize_until(now);
    ledger.flush_telemetry();
    const std::uint64_t before = scanned.value();
    // A slot at the live end of the window, as the engine asks.
    EXPECT_EQ(ledger.feedback(now - U, now), Feedback::kAck);
    ledger.flush_telemetry();
    counts.push_back(scanned.value() - before);
  }
  telemetry::set_enabled(false);
  EXPECT_GE(counts[0], 1u);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

// ---------------------------------------------------------- shared window
//
// The Window kernels (channel/window.h), driven through the Ledger.

/// `count` back-to-back unit transmissions from t = 0, stations 1..4 in
/// turn.
void add_back_to_back(Ledger& d, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i)
    d.add(tx(static_cast<StationId>(1 + i % 4), static_cast<Tick>(i) * U,
             static_cast<Tick>(i + 1) * U));
}

TEST(SharedWindow, TouchingEndpointsNeitherOverlapNorCollide) {
  Ledger d;
  d.add(tx(1, 0, 2 * U));
  d.add(tx(2, 2 * U, 3 * U));
  d.add(tx(1, 3 * U, 5 * U));
  // The longest, so every predecessor begins within max_duration of
  // its successor and the overlap test reaches the touching end.
  d.add(tx(3, 5 * U, 10 * U));
  EXPECT_EQ(d.feedback(0, 2 * U), Feedback::kAck);
  // [0, 2U) touches [2U, 2.5U) and is not heard there; [2U, 3U) is,
  // and ends after the slot: busy.
  EXPECT_EQ(d.feedback(2 * U, 2 * U + U / 2), Feedback::kBusy);
  EXPECT_EQ(d.feedback(2 * U, 3 * U), Feedback::kAck);
  EXPECT_EQ(d.feedback(3 * U, 5 * U), Feedback::kAck);
  EXPECT_EQ(d.feedback(9 * U, 10 * U), Feedback::kAck);
  EXPECT_TRUE(d.transmission_successful(1, 2 * U));
  EXPECT_TRUE(d.transmission_successful(2, 3 * U));
  EXPECT_TRUE(d.transmission_successful(1, 5 * U));
  EXPECT_TRUE(d.transmission_successful(3, 10 * U));
  EXPECT_EQ(d.flat_window().stats().successful, 4u);
  EXPECT_EQ(d.flat_window().stats().collided, 0u);
}

TEST(SharedWindow, RejectedEntriesAreInvisibleButScanned) {
  telemetry::set_enabled(true);
  auto& scanned =
      telemetry::Registry::global().counter("channel.feedback_scanned");
  // k = 1, reject mode: B begins while A is on air and is refused.
  Ledger d(false, RestrainedSpec{1, /*jam=*/false});
  d.add(tx(1, 0, 10 * U));       // A
  d.add(tx(2, 5 * U, 15 * U));   // B, rejected
  d.add(tx(3, 10 * U, 12 * U));  // C, A is off air at 10U
  d.flush_telemetry();
  std::uint64_t before = scanned.value();
  // The seek lands on B (begin > 10U - max_duration = 0): B is visited
  // and skipped, C acks.
  EXPECT_EQ(d.feedback(10 * U, 12 * U), Feedback::kAck);
  d.flush_telemetry();
  EXPECT_EQ(scanned.value() - before, 2u);
  before = scanned.value();
  // B would overlap [12U, 14U) and make it busy; rejected, it is
  // silence — still after visiting B and C.
  EXPECT_EQ(d.feedback(12 * U, 14 * U), Feedback::kSilence);
  d.flush_telemetry();
  EXPECT_EQ(scanned.value() - before, 2u);
  // The overlap test skips B too: A and C both succeed.
  EXPECT_TRUE(d.transmission_successful(1, 10 * U));
  EXPECT_TRUE(d.transmission_successful(3, 12 * U));
  EXPECT_FALSE(d.transmission_successful(2, 15 * U));
  EXPECT_EQ(d.flat_window().stats().rejected, 1u);
  EXPECT_EQ(d.flat_window().stats().successful, 2u);
  telemetry::set_enabled(false);
}

TEST(SharedWindow, CompactsAtExactlySixtyFourDeadEntries) {
  static_assert(Window::kCompactMinDead == 64);
  Ledger d;
  add_back_to_back(d, 74);
  d.prune_before(63 * U);
  EXPECT_EQ(d.flat_window().dead(), 63u);
  EXPECT_EQ(d.flat_window().live(), 11u);
  d.prune_before(64 * U);  // 64 dead, 10 live: compact
  EXPECT_EQ(d.flat_window().dead(), 0u);
  EXPECT_EQ(d.flat_window().live(), 10u);
}

TEST(SharedWindow, CompactsWhenTheDeadPrefixReachesTheLiveTail) {
  Ledger d;
  add_back_to_back(d, 200);
  d.prune_before(99 * U);  // 99 dead < 101 live: keep
  EXPECT_EQ(d.flat_window().dead(), 99u);
  d.prune_before(100 * U);  // 100 dead == 100 live: compact
  EXPECT_EQ(d.flat_window().dead(), 0u);
  EXPECT_EQ(d.flat_window().live(), 100u);
}

TEST(SharedWindow, EntryOrderSurvivesCompaction) {
  Ledger d;
  // 99 dead, 99 live: compacts, and 99 is no multiple of the four
  // stations, so a field left unshifted would show.
  add_back_to_back(d, 198);
  d.prune_before(99 * U);
  ASSERT_EQ(d.flat_window().dead(), 0u);
  // Two more, colliding with each other, after the compaction.
  d.add(tx(1, 198 * U, 200 * U));
  d.add(tx(2, 199 * U, 201 * U));
  const std::vector<Transmission> live = d.flat_window().entries();
  ASSERT_EQ(live.size(), 101u);
  for (std::size_t i = 0; i < 99; ++i) {
    EXPECT_EQ(live[i].begin, static_cast<Tick>(99 + i) * U);
    EXPECT_EQ(live[i].end, static_cast<Tick>(100 + i) * U);
    EXPECT_EQ(live[i].station, static_cast<StationId>(1 + (99 + i) % 4));
  }
  EXPECT_EQ(live[99].begin, 198 * U);
  EXPECT_EQ(live[100].begin, 199 * U);
  // The kernels read the moved entries at their new indices.
  EXPECT_EQ(d.feedback(150 * U, 151 * U), Feedback::kAck);
  EXPECT_TRUE(
      d.transmission_successful(static_cast<StationId>(1 + 150 % 4), 151 * U));
  EXPECT_EQ(d.feedback(200 * U, 201 * U), Feedback::kBusy);
  EXPECT_FALSE(d.transmission_successful(1, 200 * U));
  EXPECT_FALSE(d.transmission_successful(2, 201 * U));
}

TEST(SharedWindow, TransmissionSuccessfulScansBackToTheDurationHorizon) {
  Ledger d;
  d.add(tx(1, 0, 10 * U));  // L: the longest, so max_duration = 10U
  d.add(tx(2, 0, 3 * U));   // same begin, scanned before L from the back
  for (Tick b = 3; b < 10; ++b)
    d.add(tx(static_cast<StationId>(3 + b % 2), b * U, (b + 1) * U));
  // Decides every entry (all collide with L) without pruning any.
  EXPECT_EQ(d.feedback(9 * U, 10 * U), Feedback::kBusy);
  // L begins exactly max_duration before the end asked about: the
  // backward scan must not stop at the newer same-begin entry.
  EXPECT_FALSE(d.transmission_successful(1, 10 * U));
  EXPECT_FALSE(d.transmission_successful(2, 3 * U));
  // Nothing of station 1 ends at 2U: the scan stops and the invariant
  // check fires.
  EXPECT_THROW(d.transmission_successful(1, 2 * U), std::logic_error);
}

// ------------------------------------------------ seek and finalize

/// The reference for Window's seek and finalize: every entry ever added,
/// with the admission verdict the Window fixed at add, decided by a walk
/// over every undecided entry on each finalize call, and a feedback seek
/// by std::upper_bound over the live entries. Open entries (end +inf)
/// sit in a side list kept in the Window's order.
class RewalkWindow {
 public:
  void add(const Transmission& t) {
    all_.push_back(t);
    Transmission& e = all_.back();
    e.successful = false;
    e.decided = rejected(e);
    ++stats_.transmissions;
    if (e.is_control) ++stats_.control_transmissions;
    if (e.decided) {
      ++stats_.rejected;
      ++stats_.collided;
    } else if (static_cast<Admission>(e.admission) == Admission::kJammed) {
      ++stats_.jammed;
    }
    if (e.end == kTickInfinity)
      open_.push_back(all_.size() - 1);
    else
      max_duration_ = std::max(max_duration_, e.end - e.begin);
  }

  bool close(StationId station, Tick end) {
    std::size_t k = 0;
    while (all_[open_[k]].station != station) ++k;
    const std::size_t i = open_[k];
    open_[k] = open_.back();
    open_.pop_back();
    all_[i].end = end;
    max_duration_ = std::max(max_duration_, end - all_[i].begin);
    finalize_until(end);
    return all_[i].successful;
  }

  void finalize_until(Tick now) {
    for (std::size_t i = 0; i < all_.size(); ++i) {
      Transmission& e = all_[i];
      if (e.decided || e.end > now) continue;
      e.decided = true;
      e.successful = !overlaps_other(i);
      if (!e.successful) {
        ++stats_.collided;
        continue;
      }
      ++stats_.successful;
      if (e.is_control) {
        stats_.successful_control_time += e.end - e.begin;
      } else {
        ++stats_.successful_packets;
        stats_.successful_packet_time += e.end - e.begin;
      }
    }
  }

  Feedback feedback(Tick s, Tick t, std::uint64_t& scanned) {
    finalize_until(t);
    std::vector<Tick> begins;
    for (std::size_t i = head_; i < all_.size(); ++i)
      begins.push_back(all_[i].begin);
    std::size_t i = head_ + static_cast<std::size_t>(
                                std::upper_bound(begins.begin(), begins.end(),
                                                 s - max_duration_) -
                                begins.begin());
    scanned = 0;
    bool busy = false;
    for (; i < all_.size() && all_[i].begin < t; ++i) {
      ++scanned;
      const Transmission& e = all_[i];
      if (rejected(e)) continue;
      if (e.end > s && e.end <= t && e.successful) return Feedback::kAck;
      busy = busy || e.end > s;
    }
    for (std::size_t k = 0; !busy && k < open_.size(); ++k) {
      ++scanned;
      busy = !rejected(all_[open_[k]]) && all_[open_[k]].begin < t;
    }
    return busy ? Feedback::kBusy : Feedback::kSilence;
  }

  void prune_before(Tick horizon) {
    finalize_until(horizon);
    while (head_ < all_.size() && all_[head_].decided &&
           all_[head_].end <= horizon)
      ++head_;
  }

  const LedgerStats& stats() const { return stats_; }

 private:
  static bool rejected(const Transmission& e) {
    return static_cast<Admission>(e.admission) == Admission::kRejected;
  }

  bool overlaps_other(std::size_t i) const {
    for (std::size_t j = 0; j < all_.size(); ++j)
      if (j != i && !rejected(all_[j]) &&
          intervals_overlap(all_[i].begin, all_[i].end, all_[j].begin,
                            all_[j].end))
        return true;
    return false;
  }

  std::vector<Transmission> all_;
  std::vector<std::size_t> open_;
  std::size_t head_ = 0;  ///< entries before it are pruned
  Tick max_duration_ = 0;
  LedgerStats stats_;
};

/// Drive a Window and its RewalkWindow reference through one seeded
/// random sequence of adds (short entries, long ones up to 200 units and,
/// with `open`, open ones), closes, clock steps, finalize calls, prunes
/// and feedback queries, near the newest entry and far behind it. Every
/// verdict, scan count, close result and the stats after every operation
/// must match. With `resume`, a window with no open entry is now and then
/// saved and replaced by a fresh one loaded from the bytes, and
/// `resumed_undecided` counts those saved with undecided entries.
void expect_matches_rewalk(std::uint64_t seed, RestrainedSpec restrained,
                           bool open, int* resumed_undecided = nullptr) {
  const bool resume = resumed_undecided != nullptr;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " restrained=" +
               (restrained.enabled()
                    ? std::to_string(restrained.k) +
                          (restrained.jam ? ":jam" : ":reject")
                    : std::string("off")) +
               (open ? " open" : "") + (resume ? " resume" : ""));
  constexpr StationId kStations = 6;
  util::Rng rng(seed);
  auto window = std::make_unique<Window>(false, restrained);
  RewalkWindow ref;
  std::vector<Tick> open_begin(kStations + 1, -1);  // -1: none open
  Tick now = 0;
  Tick floor = 0;  // queries stay at or after the last prune horizon
  auto below = [&rng](Tick bound) {
    return static_cast<Tick>(rng.below(static_cast<std::uint64_t>(bound)));
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t pick = rng.below(100);
    const std::string what = "op " + std::to_string(op);
    if (pick < 20) {
      const auto station = static_cast<StationId>(1 + rng.below(kStations));
      if (open_begin[station] >= 0) continue;
      const std::uint64_t shape = rng.below(40);
      Tick end = now + U / 4 + below(3 * U);
      if (shape == 0) end = now + 20 * U + below(180 * U);
      if (open && shape >= 36) end = kTickInfinity;
      window->add(tx(station, now, end, rng.below(8) == 0));
      ref.add(window->entries().back());
      if (end == kTickInfinity) open_begin[station] = now;
    } else if (pick < 50) {
      now += below(3 * U);
    } else if (pick < 60) {
      // Close the oldest open entry once the clock has passed its begin.
      StationId station = 0;
      for (StationId k = 1; k <= kStations; ++k)
        if (open_begin[k] >= 0 &&
            (station == 0 || open_begin[k] < open_begin[station]))
          station = k;
      if (station == 0 || open_begin[station] >= now) continue;
      open_begin[station] = -1;
      ASSERT_EQ(window->close(station, now), ref.close(station, now)) << what;
    } else if (pick < 82) {
      if (now <= floor) continue;
      // Near the newest entries, or anywhere back to the prune floor.
      const Tick t = rng.below(2) == 0 ? now - below(std::min(now - floor, U))
                                       : floor + 1 + below(now - floor);
      const Tick s = std::max(floor, t - 1 - below(4 * U));
      if (s >= t) continue;
      std::uint64_t scanned = 0;
      std::uint64_t ref_scanned = 0;
      ASSERT_EQ(window->feedback(s, t, scanned), ref.feedback(s, t, ref_scanned))
          << what << " [" << s << "," << t << ")";
      ASSERT_EQ(scanned, ref_scanned) << what << " [" << s << "," << t << ")";
    } else if (pick < 94) {
      const Tick until = below(now + 1);
      window->finalize_until(until);
      ref.finalize_until(until);
    } else if (pick < 97) {
      // No later than the begin of any undecided entry (the engine's
      // horizon, the earliest current slot's begin, is that), so nothing
      // pruned can overlap an entry decided later.
      Tick horizon = now - below(60 * U);
      for (const Transmission& e : window->entries())
        if (!e.decided) horizon = std::min(horizon, e.begin);
      floor = std::max(floor, horizon);
      window->prune_before(floor);
      ref.prune_before(floor);
    } else if (resume && std::none_of(open_begin.begin(), open_begin.end(),
                                      [](Tick b) { return b >= 0; })) {
      snapshot::Writer w;
      window->save(w);
      if (!window->all_finalized()) ++*resumed_undecided;
      window = std::make_unique<Window>(false, restrained);
      snapshot::Reader r(w.buffer());
      window->load(r);
    }
    ASSERT_EQ(window->stats(), ref.stats()) << what;
  }
  EXPECT_GT(window->stats().successful, 0u);
  EXPECT_GT(window->stats().collided, 0u);
}

const RestrainedSpec kRewalkChannels[] = {
    {}, {1, true}, {1, false}, {2, true}, {3, false}};

// The gallop seek returns std::upper_bound's index over the live window
// (so every verdict and scan count is the same), far behind the newest
// entry too, and finalize_until decides the entries a walk over the whole
// undecided suffix would, at the same calls, long and open entries and
// the restrained channel included.
TEST(WindowRewalk, SeekAndFinalizeMatchTheReference) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL})
    for (const RestrainedSpec& spec : kRewalkChannels)
      expect_matches_rewalk(seed, spec, /*open=*/true);
}

// A window saved with undecided entries and loaded into a fresh one
// continues exactly as the reference: load recomputes when the next
// finalize walk is due.
TEST(WindowRewalk, LoadedWindowContinuesIdentically) {
  int resumed_undecided = 0;
  for (const std::uint64_t seed : {3ULL, 11ULL})
    for (const RestrainedSpec& spec : kRewalkChannels)
      expect_matches_rewalk(seed, spec, /*open=*/false, &resumed_undecided);
  EXPECT_GT(resumed_undecided, 20);
}

// ------------------------------------------------------ dense-path gates

std::vector<std::uint8_t> ledger_bytes(const Ledger& ledger) {
  snapshot::Writer w;
  ledger.save_state(w);
  return w.take();
}

TEST(Ledger, SkippedQueriesChargeWhatFeedbackWould) {
  // Two ledgers fed the same transmissions: one answers m queries with
  // feedback(), the other from a gate and skip_queries(m). Their
  // snapshots, batched counters included, must match.
  Ledger asked, skipped;
  for (Ledger* l : {&asked, &skipped}) {
    l->add(tx(1, 0, 2 * U));
    l->add(tx(2, 1 * U, 3 * U));
    l->add(tx(3, 4 * U, 5 * U));
  }
  EXPECT_TRUE(Ledger().quiet_at(0));  // an empty window is quiet

  // Memo: the first query of a busy slot scans and memoizes.
  EXPECT_FALSE(skipped.memo_at(2 * U, 3 * U));
  EXPECT_EQ(asked.feedback(2 * U, 3 * U), skipped.feedback(2 * U, 3 * U));
  ASSERT_TRUE(skipped.memo_at(2 * U, 3 * U));
  EXPECT_FALSE(skipped.quiet_at(2 * U));
  EXPECT_FALSE(skipped.memo_at(2 * U, 4 * U));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(asked.feedback(2 * U, 3 * U), skipped.memo_feedback());
  skipped.skip_queries(2 * U, 3 * U, 5);
  EXPECT_EQ(ledger_bytes(asked), ledger_bytes(skipped));

  // Quiet: past every end, once a real query has finalized them all.
  EXPECT_FALSE(skipped.quiet_at(5 * U));
  EXPECT_EQ(asked.feedback(5 * U, 6 * U), skipped.feedback(5 * U, 6 * U));
  ASSERT_TRUE(skipped.quiet_at(5 * U));
  EXPECT_FALSE(skipped.quiet_at(4 * U));
  for (int i = 0; i < 7; ++i)
    EXPECT_EQ(asked.feedback(5 * U, 6 * U), Feedback::kSilence);
  skipped.skip_queries(5 * U, 6 * U, 7);
  EXPECT_EQ(ledger_bytes(asked), ledger_bytes(skipped));
}

}  // namespace
}  // namespace asyncmac::channel
