// Unit tests for the channel model: exact overlap semantics, success
// finalization, the ack/busy/silence feedback truth table (Section II),
// pruning and statistics, and the shared Window kernels driven through
// both ledgers.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "channel/lane_ledger.h"
#include "channel/ledger.h"
#include "channel/transmission.h"
#include "channel/window.h"
#include "telemetry/registry.h"
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
// The Window kernels (channel/window.h) answer for both ledgers. Each test
// below runs its calls through a scalar Ledger and through lane 1 of a
// two-lane LaneLedger (lane 0 idles) and expects the same answers.

/// One ledger behind the calls the Window kernels serve.
class LedgerUnderTest {
 public:
  explicit LedgerUnderTest(bool lane, RestrainedSpec restrained = {})
      : lane_(lane), ledger_(false, restrained), lanes_(2, false, restrained) {}

  void add(const Transmission& t) {
    if (lane_)
      lanes_.add(1, t);
    else
      ledger_.add(t);
  }
  Feedback feedback(Tick s, Tick t) {
    if (!lane_) return ledger_.feedback(s, t);
    std::vector<Feedback> fb(2, Feedback::kSilence);
    lanes_.feedback_all(s, t, active_, fb.data());
    return fb[1];
  }
  void prune_before(Tick horizon) {
    if (lane_)
      lanes_.prune_before(1, horizon);
    else
      ledger_.prune_before(horizon);
  }
  bool successful(StationId station, Tick end) const {
    return lane_ ? lanes_.transmission_successful(1, station, end)
                 : ledger_.transmission_successful(station, end);
  }
  const Window& window() const {
    return lane_ ? lanes_.flat_window(1) : ledger_.flat_window();
  }
  void flush() {
    if (lane_)
      lanes_.flush_telemetry(1);
    else
      ledger_.flush_telemetry();
  }

 private:
  bool lane_;
  Ledger ledger_;
  LaneLedger lanes_;
  std::vector<std::uint32_t> active_{1};
};

/// `count` back-to-back unit transmissions from t = 0, stations 1..4 in
/// turn.
void add_back_to_back(LedgerUnderTest& d, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i)
    d.add(tx(static_cast<StationId>(1 + i % 4), static_cast<Tick>(i) * U,
             static_cast<Tick>(i + 1) * U));
}

TEST(SharedWindow, TouchingEndpointsNeitherOverlapNorCollide) {
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    LedgerUnderTest d(lane);
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
    EXPECT_TRUE(d.successful(1, 2 * U));
    EXPECT_TRUE(d.successful(2, 3 * U));
    EXPECT_TRUE(d.successful(1, 5 * U));
    EXPECT_TRUE(d.successful(3, 10 * U));
    EXPECT_EQ(d.window().stats().successful, 4u);
    EXPECT_EQ(d.window().stats().collided, 0u);
  }
}

TEST(SharedWindow, RejectedEntriesAreInvisibleButScanned) {
  telemetry::set_enabled(true);
  auto& scanned =
      telemetry::Registry::global().counter("channel.feedback_scanned");
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    // k = 1, reject mode: B begins while A is on air and is refused.
    LedgerUnderTest d(lane, RestrainedSpec{1, /*jam=*/false});
    d.add(tx(1, 0, 10 * U));       // A
    d.add(tx(2, 5 * U, 15 * U));   // B, rejected
    d.add(tx(3, 10 * U, 12 * U));  // C, A is off air at 10U
    d.flush();
    std::uint64_t before = scanned.value();
    // The seek lands on B (begin > 10U - max_duration = 0): B is visited
    // and skipped, C acks.
    EXPECT_EQ(d.feedback(10 * U, 12 * U), Feedback::kAck);
    d.flush();
    EXPECT_EQ(scanned.value() - before, 2u);
    before = scanned.value();
    // B would overlap [12U, 14U) and make it busy; rejected, it is
    // silence — still after visiting B and C.
    EXPECT_EQ(d.feedback(12 * U, 14 * U), Feedback::kSilence);
    d.flush();
    EXPECT_EQ(scanned.value() - before, 2u);
    // The overlap test skips B too: A and C both succeed.
    EXPECT_TRUE(d.successful(1, 10 * U));
    EXPECT_TRUE(d.successful(3, 12 * U));
    EXPECT_FALSE(d.successful(2, 15 * U));
    EXPECT_EQ(d.window().stats().rejected, 1u);
    EXPECT_EQ(d.window().stats().successful, 2u);
  }
  telemetry::set_enabled(false);
}

TEST(SharedWindow, CompactsAtExactlySixtyFourDeadEntries) {
  static_assert(Window::kCompactMinDead == 64);
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    LedgerUnderTest d(lane);
    add_back_to_back(d, 74);
    d.prune_before(63 * U);
    EXPECT_EQ(d.window().dead(), 63u);
    EXPECT_EQ(d.window().live(), 11u);
    d.prune_before(64 * U);  // 64 dead, 10 live: compact
    EXPECT_EQ(d.window().dead(), 0u);
    EXPECT_EQ(d.window().live(), 10u);
  }
}

TEST(SharedWindow, CompactsWhenTheDeadPrefixReachesTheLiveTail) {
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    LedgerUnderTest d(lane);
    add_back_to_back(d, 200);
    d.prune_before(99 * U);  // 99 dead < 101 live: keep
    EXPECT_EQ(d.window().dead(), 99u);
    d.prune_before(100 * U);  // 100 dead == 100 live: compact
    EXPECT_EQ(d.window().dead(), 0u);
    EXPECT_EQ(d.window().live(), 100u);
  }
}

TEST(SharedWindow, EntryOrderSurvivesCompaction) {
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    LedgerUnderTest d(lane);
    // 99 dead, 99 live: compacts, and 99 is no multiple of the four
    // stations, so a field left unshifted would show.
    add_back_to_back(d, 198);
    d.prune_before(99 * U);
    ASSERT_EQ(d.window().dead(), 0u);
    // Two more, colliding with each other, after the compaction.
    d.add(tx(1, 198 * U, 200 * U));
    d.add(tx(2, 199 * U, 201 * U));
    const std::vector<Transmission> live = d.window().entries();
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
    EXPECT_TRUE(d.successful(static_cast<StationId>(1 + 150 % 4), 151 * U));
    EXPECT_EQ(d.feedback(200 * U, 201 * U), Feedback::kBusy);
    EXPECT_FALSE(d.successful(1, 200 * U));
    EXPECT_FALSE(d.successful(2, 201 * U));
  }
}

TEST(SharedWindow, TransmissionSuccessfulScansBackToTheDurationHorizon) {
  for (const bool lane : {false, true}) {
    SCOPED_TRACE(lane ? "lane ledger" : "ledger");
    LedgerUnderTest d(lane);
    d.add(tx(1, 0, 10 * U));  // L: the longest, so max_duration = 10U
    d.add(tx(2, 0, 3 * U));   // same begin, scanned before L from the back
    for (Tick b = 3; b < 10; ++b)
      d.add(tx(static_cast<StationId>(3 + b % 2), b * U, (b + 1) * U));
    // Decides every entry (all collide with L) without pruning any.
    EXPECT_EQ(d.feedback(9 * U, 10 * U), Feedback::kBusy);
    // L begins exactly max_duration before the end asked about: the
    // backward scan must not stop at the newer same-begin entry.
    EXPECT_FALSE(d.successful(1, 10 * U));
    EXPECT_FALSE(d.successful(2, 3 * U));
    // Nothing of station 1 ends at 2U: the scan stops and the invariant
    // check fires.
    EXPECT_THROW(d.successful(1, 2 * U), std::logic_error);
  }
}

}  // namespace
}  // namespace asyncmac::channel
