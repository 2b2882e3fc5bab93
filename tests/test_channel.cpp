// Unit tests for the channel model: exact overlap semantics, success
// finalization, the ack/busy/silence feedback truth table (Section II),
// pruning and statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
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

}  // namespace
}  // namespace asyncmac::channel
