// Unit tests for the slot-event scheduler (sim/event_heap.h), a winner
// tree over station leaves padded to a power of two: the degenerate n=1
// tree, re-keying an entry to its current key, the (end, station)
// tie-break on all-ties synchronous schedules, padding leaves that never
// surface, and cross-checks against a linear-scan reference model for
// n in {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100} — a randomized re-key
// storm and the engine's hold pattern (only the top is re-keyed, to a
// later end).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_heap.h"
#include "util/types.h"

namespace asyncmac {
namespace {

using sim::SlotEventHeap;

TEST(EventHeap, SingleStationHeap) {
  // volatile blocks constant propagation of n=1: GCC otherwise proves the
  // backing array has one element and flags the (unreachable) sift paths
  // with a false-positive -Warray-bounds under -Werror.
  volatile std::uint32_t one = 1;
  SlotEventHeap h(one);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.empty());
  // All stations start at the "no slot committed" sentinel.
  EXPECT_EQ(h.top_time(), kTickInfinity);
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.time_of(1), kTickInfinity);

  h.update(1, 500);
  EXPECT_EQ(h.top_time(), 500);
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.time_of(1), 500);

  // Decrease, increase, and back to the sentinel — with one entry every
  // update must land at the root without touching out-of-range children.
  h.update(1, 3);
  EXPECT_EQ(h.top_time(), 3);
  h.update(1, 1000000);
  EXPECT_EQ(h.top_time(), 1000000);
  h.update(1, kTickInfinity);
  EXPECT_EQ(h.top_time(), kTickInfinity);
}

TEST(EventHeap, ReKeyToEqualKeyKeepsEntryValid) {
  SlotEventHeap h(5);
  for (StationId s = 1; s <= 5; ++s) h.update(s, 100 * s);
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.top_time(), 100);

  // Re-keying the top to its current key must leave it the top.
  h.update(1, 100);
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.top_time(), 100);
  EXPECT_EQ(h.time_of(1), 100);

  // Re-keying an interior entry to its current key must not lose it or
  // disturb the order.
  h.update(3, 300);
  EXPECT_EQ(h.time_of(3), 300);
  EXPECT_EQ(h.top_station(), 1u);

  // Re-key station 2 onto station 1's key: ties break by station id, so
  // station 1 stays on top; after it advances, station 2 surfaces.
  h.update(2, 100);
  EXPECT_EQ(h.top_station(), 1u);
  h.update(1, 999);
  EXPECT_EQ(h.top_station(), 2u);
  EXPECT_EQ(h.top_time(), 100);
}

TEST(EventHeap, AllTiesProcessInAscendingStationOrder) {
  // The synchronous schedule: every slot ends at the same tick. Draining
  // the ties (re-keying each served top to a later end) must visit
  // stations in ascending id order — the documented ordering contract.
  constexpr std::uint32_t n = 9;
  SlotEventHeap h(n);
  for (StationId s = 1; s <= n; ++s) h.update(s, 720720);
  for (StationId expect = 1; expect <= n; ++expect) {
    EXPECT_EQ(h.top_time(), 720720);
    EXPECT_EQ(h.top_station(), expect);
    h.update(h.top_station(), 2 * 720720);
  }
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.top_time(), 2 * 720720);
}

/// Sizes below, at and above powers of two: the padded leaf count P
/// ranges over 1..128 and most sizes leave padding leaves.
constexpr std::uint32_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100};

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state;
}

/// Check the top and every station's key against a linear scan over the
/// shadow keys under the (end, station) lexicographic order.
void expect_matches_reference(const SlotEventHeap& h,
                              const std::vector<Tick>& shadow, int step) {
  const auto n = static_cast<StationId>(shadow.size());
  StationId best = 1;
  for (StationId c = 2; c <= n; ++c)
    if (shadow[c - 1] < shadow[best - 1]) best = c;
  ASSERT_EQ(h.top_time(), shadow[best - 1]) << "step " << step;
  ASSERT_EQ(h.top_station(), best) << "step " << step;
  for (StationId c = 1; c <= n; ++c)
    ASSERT_EQ(h.time_of(c), shadow[c - 1]) << "step " << step;
}

/// Randomized re-key storm over n stations, including deliberate duplicate
/// keys and re-keys back to kTickInfinity, checked after every update.
void check_rekey_storm(std::uint32_t n) {
  SlotEventHeap h(n);
  std::vector<Tick> shadow(n, kTickInfinity);
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int step = 0; step < 5000 && !::testing::Test::HasFatalFailure();
       ++step) {
    const StationId s = static_cast<StationId>(1 + (lcg(rng) >> 33) % n);
    // Small key range on purpose: collisions exercise the tie-break and
    // equal-key re-keys far more often than distinct keys would.
    const auto draw = static_cast<Tick>((lcg(rng) >> 40) % 17);
    const Tick end = draw == 16 ? kTickInfinity : draw;
    h.update(s, end);
    shadow[s - 1] = end;
    expect_matches_reference(h, shadow, step);
  }
}

TEST(EventHeap, MatchesLinearScanReference) {
  for (const std::uint32_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    check_rekey_storm(n);
    if (HasFatalFailure()) return;
  }
}

/// The engine's hold pattern: every station commits a slot at time 0, then
/// each step re-keys only the top station, to its end plus its next slot
/// length `length(station)` (> 0), checked after every update.
template <typename Length>
void check_hold_pattern(std::uint32_t n, Length&& length) {
  SlotEventHeap h(n);
  std::vector<Tick> shadow(n);
  for (StationId s = 1; s <= n; ++s) {
    shadow[s - 1] = length(s);
    h.update(s, shadow[s - 1]);
  }
  expect_matches_reference(h, shadow, -1);
  for (int step = 0; step < 3000 && !::testing::Test::HasFatalFailure();
       ++step) {
    const StationId top = h.top_station();
    const Tick end = h.top_time() + length(top);
    h.update(top, end);
    shadow[top - 1] = end;
    expect_matches_reference(h, shadow, step);
  }
}

TEST(EventHeap, HoldPatternWithPerstationLengths) {
  // The perstation slot policy: station i+1 lasts (1 + i % R) units.
  for (const std::uint32_t n : kSizes)
    for (const std::uint32_t r : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " R=" << r);
      check_hold_pattern(n, [r](StationId s) {
        return static_cast<Tick>(1 + (s - 1) % r) * kTicksPerUnit;
      });
      if (HasFatalFailure()) return;
    }
}

TEST(EventHeap, HoldPatternWithArbitraryTickLengths) {
  for (const std::uint32_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::uint64_t rng = 0x2545f4914f6cdd1dULL + n;
    // Lengths of 1..3 ticks collide constantly; up to 4 units rarely do.
    for (const Tick span : {Tick{3}, 4 * kTicksPerUnit}) {
      check_hold_pattern(n, [&rng, span](StationId) {
        return 1 + static_cast<Tick>((lcg(rng) >> 11) %
                                     static_cast<std::uint64_t>(span));
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EventHeap, PaddingLeavesNeverSurface) {
  // Sizes off a power of two leave padding leaves; with every real key
  // at kTickInfinity the top must still be station 1, never a padding
  // leaf — before any update and after keys return to infinity.
  for (const std::uint32_t n : {3u, 5u, 7u, 9u, 33u, 100u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    SlotEventHeap h(n);
    EXPECT_EQ(h.top_station(), 1u);
    EXPECT_EQ(h.top_time(), kTickInfinity);
    for (StationId s = 1; s <= n; ++s) h.update(s, 5);
    for (StationId s = n; s >= 1; --s) h.update(s, kTickInfinity);
    EXPECT_EQ(h.top_station(), 1u);
    EXPECT_EQ(h.top_time(), kTickInfinity);
    EXPECT_EQ(h.time_of(n), kTickInfinity);
  }
}

}  // namespace
}  // namespace asyncmac
