// Tests for the arrival-driven live channel (live/channel.h): open
// transmissions make overlapping slots busy but never ack, a feedback
// query visits a bounded neighborhood however large the window grows,
// and, queried the way the daemon queries it (open slots, pruning, the
// restrained channel), every answer and the cumulative stats equal the
// simulation ledger fed the same schedule — the channel half of the
// sim-vs-live differential.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "live/channel.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace asyncmac::live {
namespace {

constexpr Tick U = kTicksPerUnit;

TEST(LiveChannel, OpenTransmissionIsBusyNeverAck) {
  LiveChannel ch;
  ch.begin_tx(1, 10, /*is_control=*/false, /*packet=*/1);
  EXPECT_TRUE(ch.has_open(1));
  // Any slot overlapping [10, inf) is busy; nothing has ended, so no ack.
  EXPECT_EQ(ch.feedback(0, 10), Feedback::kSilence);  // touching, no overlap
  EXPECT_EQ(ch.feedback(5, 15), Feedback::kBusy);
  EXPECT_EQ(ch.feedback(100, 200), Feedback::kBusy);
  EXPECT_EQ(ch.stats().transmissions, 1u);
  EXPECT_EQ(ch.stats().successful, 0u);
  EXPECT_EQ(ch.stats().collided, 0u);
}

TEST(LiveChannel, LoneClosedTransmissionAcks) {
  LiveChannel ch;
  ch.begin_tx(1, 10, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 20));
  EXPECT_FALSE(ch.has_open(1));
  // Ack iff the successful end lands in (s, t].
  EXPECT_EQ(ch.feedback(10, 20), Feedback::kAck);
  EXPECT_EQ(ch.feedback(15, 25), Feedback::kAck);
  EXPECT_EQ(ch.feedback(20, 30), Feedback::kSilence);  // end not in (20, 30]
  EXPECT_EQ(ch.feedback(0, 10), Feedback::kSilence);
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().successful_packets, 1u);
  EXPECT_EQ(ch.stats().successful_packet_time, 10);
}

TEST(LiveChannel, OverlapCollidesBothWays) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  ch.begin_tx(2, 5, false, 2);
  // Station 1 closes first at 10: overlaps [5, open) -> collided.
  EXPECT_FALSE(ch.close_tx(1, 10));
  // Station 2 closes at 12: overlaps the closed [0, 10) -> collided.
  EXPECT_FALSE(ch.close_tx(2, 12));
  EXPECT_EQ(ch.stats().collided, 2u);
  EXPECT_EQ(ch.stats().successful, 0u);
  EXPECT_EQ(ch.feedback(0, 12), Feedback::kBusy);
}

TEST(LiveChannel, TouchingEndpointsDoNotCollide) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 10));
  ch.begin_tx(2, 10, false, 2);  // back-to-back, no overlap
  EXPECT_TRUE(ch.close_tx(2, 20));
  EXPECT_EQ(ch.stats().successful, 2u);
  EXPECT_EQ(ch.stats().collided, 0u);
}

TEST(LiveChannel, ControlTransmissionsCountSeparately) {
  LiveChannel ch;
  ch.begin_tx(1, 0, /*is_control=*/true, 0);
  EXPECT_TRUE(ch.close_tx(1, 5));
  EXPECT_EQ(ch.stats().transmissions, 1u);
  EXPECT_EQ(ch.stats().control_transmissions, 1u);
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().successful_packets, 0u);
  EXPECT_EQ(ch.stats().successful_control_time, 5);
  EXPECT_EQ(ch.stats().successful_packet_time, 0);
  // A successful control transmission still acks its slot.
  EXPECT_EQ(ch.feedback(0, 5), Feedback::kAck);
}

TEST(LiveChannel, PrunePreservesStatsAndKeepsOpenEntries) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 10));
  ch.begin_tx(2, 20, false, 2);  // stays open across the prune
  ch.prune_before(15);
  EXPECT_EQ(ch.window_size(), 1u);  // closed [0,10) dropped, open kept
  EXPECT_TRUE(ch.has_open(2));
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().transmissions, 2u);
  // Later slots still see the open transmission.
  EXPECT_EQ(ch.feedback(25, 30), Feedback::kBusy);
}

TEST(LiveChannel, OpenEntriesOlderThanTheScanBoundStillCount) {
  // Station 1 stays open from 0 while the longest closed duration is one
  // unit, so every later neighborhood starts after its begin: only the
  // side list of open entries sees it.
  {
    LiveChannel ch;
    ch.begin_tx(1, 0, false, 1);
    ch.begin_tx(2, 0, false, 2);
    EXPECT_FALSE(ch.close_tx(2, U));
    EXPECT_EQ(ch.feedback(5 * U, 6 * U), Feedback::kBusy);
    ch.begin_tx(3, 5 * U, false, 3);
    EXPECT_FALSE(ch.close_tx(3, 6 * U));  // collides with the open entry
  }
  {
    // k = 1, reject: the open entry holds the only on-air place.
    LiveChannel ch(channel::RestrainedSpec{1, false});
    ch.begin_tx(1, 0, false, 1);
    ch.begin_tx(2, 0, false, 2);
    EXPECT_FALSE(ch.close_tx(2, U));
    ch.begin_tx(3, 5 * U, false, 3);
    EXPECT_FALSE(ch.close_tx(3, 6 * U));
    EXPECT_EQ(ch.stats().rejected, 2u);
    EXPECT_EQ(ch.feedback(5 * U, 6 * U), Feedback::kBusy);
  }
}

TEST(LiveChannel, FeedbackScanDoesNotGrowWithTheWindow) {
  telemetry::set_enabled(true);
  auto& scanned =
      telemetry::Registry::global().counter("live.channel_scanned");
  std::vector<std::uint64_t> counts;
  for (const std::uint64_t size : {100u, 10000u, 100000u}) {
    // Four stations taking turns with back-to-back unit slots, never
    // pruned: the window holds every entry.
    LiveChannel ch;
    Tick now = 0;
    for (std::uint64_t i = 0; i < size; ++i) {
      const auto station = static_cast<StationId>(1 + i % 4);
      ch.begin_tx(station, now, false, i + 1);
      ch.close_tx(station, now + U);
      now += U;
    }
    ASSERT_EQ(ch.window_size(), size);
    const std::uint64_t before = scanned.value();
    // A slot at the live end of the window, as the daemon asks.
    EXPECT_EQ(ch.feedback(now - U, now), Feedback::kAck);
    counts.push_back(scanned.value() - before);
  }
  telemetry::set_enabled(false);
  EXPECT_GE(counts[0], 1u);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

// ----------------------------------------------------- ledger differential

/// One station slot of a schedule: [begin, end), transmitting or not.
struct Slot {
  Tick begin;
  Tick end;
  bool transmit;
  bool is_control;
};

/// Seeded per-station chains of back-to-back slots (a station's next slot
/// begins when the previous one ends, as in the daemon), starting at
/// random offsets, transmitting with probability 1/2. Slot lengths are
/// tick-granular so ends interleave freely, and their cap grows from 3
/// to 9 units across the horizon, so the longest closed duration keeps
/// growing mid-run (a bound by the first closed duration fails here).
std::vector<std::vector<Slot>> random_slots(std::uint64_t seed, int stations,
                                            Tick horizon) {
  util::Rng rng(seed);
  std::vector<std::vector<Slot>> slots(static_cast<std::size_t>(stations));
  for (auto& chain : slots) {
    Tick t = static_cast<Tick>(rng.below(static_cast<std::uint64_t>(4 * U)));
    while (t < horizon) {
      const Tick spread = 2 * U + 6 * U * t / horizon;
      const Tick len =
          U + static_cast<Tick>(rng.below(static_cast<std::uint64_t>(spread)));
      const bool transmit = rng.below(2) == 0;
      chain.push_back({t, t + len, transmit, transmit && rng.below(8) == 0});
      t += len;
    }
  }
  return slots;
}

/// Drive a LiveChannel the way the daemon does and a channel::Ledger the
/// way the engine does over the same slots, comparing every answer. At
/// each slot boundary t: close every transmission ending at t, then ask
/// feedback (and, for transmitters, ack ownership) for each slot ending
/// at t while later slots are still open, then register the slots
/// beginning at t. Every `prune_every` settled slots (0 = never) both
/// prune below the earliest current-slot begin, the daemon's rule.
void expect_matches_ledger(std::uint64_t seed,
                           channel::RestrainedSpec restrained,
                           std::uint64_t prune_every) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " restrained=" +
               (restrained.enabled()
                    ? std::to_string(restrained.k) +
                          (restrained.jam ? ":jam" : ":reject")
                    : std::string("off")) +
               " prune_every=" + std::to_string(prune_every));
  const int stations = 5;
  const auto slots = random_slots(seed, stations, 150 * U);
  LiveChannel live(restrained);
  channel::Ledger ledger(false, restrained);
  // next[i]: index of station i+1's current slot; started[i]: whether
  // that slot has begun (otherwise the station's next event is its
  // first begin).
  std::vector<std::size_t> next(stations, 0);
  std::vector<bool> started(stations, false);
  auto event_time = [&](int i) {
    const auto& chain = slots[static_cast<std::size_t>(i)];
    const std::size_t k = next[static_cast<std::size_t>(i)];
    if (k >= chain.size()) return kTickInfinity;
    return started[static_cast<std::size_t>(i)] ? chain[k].end
                                                : chain[k].begin;
  };
  std::uint64_t settled = 0;
  Tick latest_end = 0;
  for (;;) {
    Tick t = kTickInfinity;
    for (int i = 0; i < stations; ++i) t = std::min(t, event_time(i));
    if (t == kTickInfinity) break;
    std::vector<int> at;  // stations with an event at t, ascending
    for (int i = 0; i < stations; ++i)
      if (event_time(i) == t) at.push_back(i);

    // Phase A: close the ending transmissions.
    std::vector<bool> closed_ok(stations, false);
    for (const int i : at) {
      const auto ui = static_cast<std::size_t>(i);
      if (!started[ui]) continue;
      const Slot& slot = slots[ui][next[ui]];
      if (slot.transmit)
        closed_ok[ui] = live.close_tx(static_cast<StationId>(i + 1), t);
    }
    // Phase B: feedback for every slot ending at t.
    for (const int i : at) {
      const auto ui = static_cast<std::size_t>(i);
      if (!started[ui]) continue;
      const Slot& slot = slots[ui][next[ui]];
      const auto id = static_cast<StationId>(i + 1);
      ASSERT_EQ(live.feedback(slot.begin, t), ledger.feedback(slot.begin, t))
          << "station " << id << " slot [" << slot.begin << "," << t << ")";
      if (slot.transmit) {
        const bool ok = ledger.transmission_successful(id, t);
        ASSERT_EQ(closed_ok[ui], ok) << "station " << id << " end " << t;
        ASSERT_EQ(live.transmission_successful(id, t), ok)
            << "station " << id << " end " << t;
      }
      ++next[ui];
      ++settled;
      latest_end = std::max(latest_end, t);
    }
    // Phase C: register the slots beginning at t.
    for (const int i : at) {
      const auto ui = static_cast<std::size_t>(i);
      started[ui] = true;
      if (next[ui] >= slots[ui].size()) continue;
      const Slot& slot = slots[ui][next[ui]];
      ASSERT_EQ(slot.begin, t);
      if (!slot.transmit) continue;
      const auto id = static_cast<StationId>(i + 1);
      const PacketSeq packet = slot.is_control ? 0 : settled + 1;
      live.begin_tx(id, t, slot.is_control, packet);
      channel::Transmission tx;
      tx.station = id;
      tx.begin = t;
      tx.end = slot.end;
      tx.is_control = slot.is_control;
      tx.packet = packet;
      ledger.add(tx);
    }
    if (prune_every != 0 && settled >= prune_every) {
      settled = 0;
      Tick horizon = kTickInfinity;
      for (int i = 0; i < stations; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        horizon = std::min(horizon, next[ui] < slots[ui].size()
                                        ? slots[ui][next[ui]].begin
                                        : latest_end);
      }
      live.prune_before(horizon);
      ledger.prune_before(horizon);
    }
  }

  ledger.finalize_until(latest_end);
  EXPECT_EQ(live.stats(), ledger.stats());
  if (restrained.enabled()) {
    EXPECT_GT(live.stats().jammed + live.stats().rejected, 0u);
  }
  if (prune_every != 0) return;
  // Unpruned, every interval is closed now: dense arbitrary windows,
  // including ones straddling interval boundaries.
  util::Rng qrng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int q = 0; q < 500; ++q) {
    const Tick s = static_cast<Tick>(
        qrng.below(static_cast<std::uint64_t>(latest_end)));
    const Tick t =
        s + 1 +
        static_cast<Tick>(qrng.below(static_cast<std::uint64_t>(4 * U)));
    ASSERT_EQ(live.feedback(s, t), ledger.feedback(s, t))
        << "window=[" << s << "," << t << ")";
  }
}

TEST(LiveChannelDifferential, MatchesLedgerOnRandomSchedules) {
  const channel::RestrainedSpec specs[] = {
      {}, {1, true}, {1, false}, {2, true}, {2, false}};
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL})
    for (const channel::RestrainedSpec& spec : specs)
      for (const std::uint64_t prune_every : {0ULL, 3ULL})
        expect_matches_ledger(seed, spec, prune_every);
}

}  // namespace
}  // namespace asyncmac::live
