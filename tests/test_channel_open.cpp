// Tests for channel::Window's open entries (channel/window.h), the live
// daemon's channel: a transmission added with end = +inf makes
// overlapping slots busy but never acks until close() fixes its end, a
// feedback query visits a bounded neighborhood however large the window
// grows, and, driven the way the daemon drives it (open slots, pruning,
// the restrained channel), every answer and the cumulative stats equal a
// channel::Ledger fed the same schedule the engine's way — the channel
// half of the sim-vs-live differential.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "channel/window.h"
#include "util/rng.h"

namespace asyncmac::channel {
namespace {

constexpr Tick U = kTicksPerUnit;

/// A window as the daemon holds one: no history.
Window open_window(RestrainedSpec restrained = {}) {
  return Window(/*keep_history=*/false, restrained);
}

/// Register `station`'s transmission beginning at `begin`, open.
void begin_tx(Window& w, StationId station, Tick begin,
              bool is_control = false, PacketSeq packet = 1) {
  Transmission tx;
  tx.station = station;
  tx.begin = begin;
  tx.end = kTickInfinity;
  tx.is_control = is_control;
  tx.packet = packet;
  w.add(tx);
}

Feedback feedback(Window& w, Tick s, Tick t) {
  std::uint64_t scanned = 0;
  return w.feedback(s, t, scanned);
}

bool has_open(const Window& w, StationId station) {
  const std::vector<Transmission> live = w.entries();
  return std::any_of(live.begin(), live.end(),
                     [station](const Transmission& t) {
                       return t.station == station && t.end == kTickInfinity;
                     });
}

TEST(WindowOpen, OpenTransmissionIsBusyNeverAck) {
  Window w = open_window();
  begin_tx(w, 1, 10);
  EXPECT_TRUE(has_open(w, 1));
  // Any slot overlapping [10, inf) is busy; nothing has ended, so no ack.
  EXPECT_EQ(feedback(w, 0, 10), Feedback::kSilence);  // touching, no overlap
  EXPECT_EQ(feedback(w, 5, 15), Feedback::kBusy);
  EXPECT_EQ(feedback(w, 100, 200), Feedback::kBusy);
  EXPECT_EQ(w.stats().transmissions, 1u);
  EXPECT_EQ(w.stats().successful, 0u);
  EXPECT_EQ(w.stats().collided, 0u);
  // An open entry moves neither watermark.
  EXPECT_EQ(w.latest_end(), 0);
  EXPECT_EQ(w.max_duration(), 0);
}

TEST(WindowOpen, LoneClosedTransmissionAcks) {
  Window w = open_window();
  begin_tx(w, 1, 10);
  EXPECT_TRUE(w.close(1, 20));
  EXPECT_FALSE(has_open(w, 1));
  EXPECT_EQ(w.latest_end(), 20);
  EXPECT_EQ(w.max_duration(), 10);
  // Ack iff the successful end lands in (s, t].
  EXPECT_EQ(feedback(w, 10, 20), Feedback::kAck);
  EXPECT_EQ(feedback(w, 15, 25), Feedback::kAck);
  EXPECT_EQ(feedback(w, 20, 30), Feedback::kSilence);  // end not in (20, 30]
  EXPECT_EQ(feedback(w, 0, 10), Feedback::kSilence);
  EXPECT_EQ(w.stats().successful, 1u);
  EXPECT_EQ(w.stats().successful_packets, 1u);
  EXPECT_EQ(w.stats().successful_packet_time, 10);
}

TEST(WindowOpen, OverlapCollidesBothWays) {
  Window w = open_window();
  begin_tx(w, 1, 0, false, 1);
  begin_tx(w, 2, 5, false, 2);
  // Station 1 closes first at 10: overlaps [5, open) -> collided.
  EXPECT_FALSE(w.close(1, 10));
  // Station 2 closes at 12: overlaps the closed [0, 10) -> collided.
  EXPECT_FALSE(w.close(2, 12));
  EXPECT_EQ(w.stats().collided, 2u);
  EXPECT_EQ(w.stats().successful, 0u);
  EXPECT_EQ(feedback(w, 0, 12), Feedback::kBusy);
}

TEST(WindowOpen, TouchingEndpointsDoNotCollide) {
  Window w = open_window();
  begin_tx(w, 1, 0, false, 1);
  EXPECT_TRUE(w.close(1, 10));
  begin_tx(w, 2, 10, false, 2);  // back-to-back, no overlap
  EXPECT_TRUE(w.close(2, 20));
  EXPECT_EQ(w.stats().successful, 2u);
  EXPECT_EQ(w.stats().collided, 0u);
}

TEST(WindowOpen, ControlTransmissionsCountSeparately) {
  Window w = open_window();
  begin_tx(w, 1, 0, /*is_control=*/true, 0);
  EXPECT_TRUE(w.close(1, 5));
  EXPECT_EQ(w.stats().transmissions, 1u);
  EXPECT_EQ(w.stats().control_transmissions, 1u);
  EXPECT_EQ(w.stats().successful, 1u);
  EXPECT_EQ(w.stats().successful_packets, 0u);
  EXPECT_EQ(w.stats().successful_control_time, 5);
  EXPECT_EQ(w.stats().successful_packet_time, 0);
  // A successful control transmission still acks its slot.
  EXPECT_EQ(feedback(w, 0, 5), Feedback::kAck);
}

TEST(WindowOpen, PrunePreservesStatsAndKeepsOpenEntries) {
  Window w = open_window();
  begin_tx(w, 1, 0, false, 1);
  EXPECT_TRUE(w.close(1, 10));
  begin_tx(w, 2, 20, false, 2);  // stays open across the prune
  EXPECT_EQ(w.prune_before(15), 1u);
  EXPECT_EQ(w.live(), 1u);  // closed [0,10) dropped, open kept
  EXPECT_TRUE(has_open(w, 2));
  EXPECT_EQ(w.stats().successful, 1u);
  EXPECT_EQ(w.stats().transmissions, 2u);
  // Later slots still see the open transmission.
  EXPECT_EQ(feedback(w, 25, 30), Feedback::kBusy);

  // A prune that compacts the arrays keeps the open entry closable:
  // station 2's slot and 100 more of station 1's end, station 3 opens
  // behind them, and the prune drops all 101 ended entries.
  EXPECT_TRUE(w.close(2, 25));
  Tick now = 30;
  for (PacketSeq p = 3; p < 103; ++p, now += 10) {
    begin_tx(w, 1, now, false, p);
    EXPECT_TRUE(w.close(1, now + 10));
  }
  begin_tx(w, 3, now, false, 103);
  EXPECT_EQ(w.prune_before(now), 101u);
  EXPECT_EQ(w.dead(), 0u);  // compacted
  EXPECT_TRUE(has_open(w, 3));
  EXPECT_EQ(feedback(w, now + 5, now + 6), Feedback::kBusy);
  begin_tx(w, 1, now + 2, false, 104);
  EXPECT_FALSE(w.close(1, now + 4));  // station 3 is on air
  EXPECT_FALSE(w.close(3, now + 10));
  EXPECT_EQ(w.stats().transmissions, 104u);
  EXPECT_EQ(w.stats().successful, 102u);
  EXPECT_EQ(w.stats().collided, 2u);
}

TEST(WindowOpen, OpenEntriesOlderThanTheScanBoundStillCount) {
  // Station 1 stays open from 0 while the longest closed duration is one
  // unit, so every later neighborhood starts after its begin: only the
  // side list of open entries sees it.
  {
    Window w = open_window();
    begin_tx(w, 1, 0, false, 1);
    begin_tx(w, 2, 0, false, 2);
    EXPECT_FALSE(w.close(2, U));
    EXPECT_EQ(feedback(w, 5 * U, 6 * U), Feedback::kBusy);
    begin_tx(w, 3, 5 * U, false, 3);
    EXPECT_FALSE(w.close(3, 6 * U));  // collides with the open entry
  }
  // k = 1: the open entry holds the only on-air place, so each later
  // transmission is over capacity — rejected, or jammed.
  for (const bool jam : {false, true}) {
    SCOPED_TRACE(jam ? "k=1 jam" : "k=1 reject");
    Window w = open_window(RestrainedSpec{1, jam});
    begin_tx(w, 1, 0, false, 1);
    begin_tx(w, 2, 0, false, 2);
    EXPECT_FALSE(w.close(2, U));
    begin_tx(w, 3, 5 * U, false, 3);
    EXPECT_FALSE(w.close(3, 6 * U));
    EXPECT_EQ(w.stats().rejected, jam ? 0u : 2u);
    EXPECT_EQ(w.stats().jammed, jam ? 2u : 0u);
    EXPECT_EQ(feedback(w, 5 * U, 6 * U), Feedback::kBusy);
  }
}

TEST(WindowOpen, FeedbackScanDoesNotGrowWithTheWindow) {
  std::vector<std::uint64_t> counts;
  for (const std::uint64_t size : {100u, 10000u, 100000u}) {
    // Four stations taking turns with back-to-back unit slots, never
    // pruned: the window holds every entry.
    Window w = open_window();
    Tick now = 0;
    for (std::uint64_t i = 0; i < size; ++i) {
      const auto station = static_cast<StationId>(1 + i % 4);
      begin_tx(w, station, now, false, i + 1);
      w.close(station, now + U);
      now += U;
    }
    ASSERT_EQ(w.live(), size);
    // A slot at the live end of the window, as the daemon asks.
    std::uint64_t scanned = 0;
    EXPECT_EQ(w.feedback(now - U, now, scanned), Feedback::kAck);
    counts.push_back(scanned);
  }
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

/// Drive a Window the way the daemon does and a Ledger the way the
/// engine does over the same slots, comparing every answer. At
/// each slot boundary t: close every transmission ending at t, then ask
/// feedback (and, for transmitters, ack ownership) for each slot ending
/// at t while later slots are still open, then register the slots
/// beginning at t. Every `prune_every` settled slots (0 = never) both
/// prune below the earliest current-slot begin, the daemon's rule.
void expect_matches_ledger(std::uint64_t seed, RestrainedSpec restrained,
                           std::uint64_t prune_every) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " restrained=" +
               (restrained.enabled()
                    ? std::to_string(restrained.k) +
                          (restrained.jam ? ":jam" : ":reject")
                    : std::string("off")) +
               " prune_every=" + std::to_string(prune_every));
  const int stations = 5;
  const auto slots = random_slots(seed, stations, 150 * U);
  Window live = open_window(restrained);
  Ledger ledger(false, restrained);
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
        closed_ok[ui] = live.close(static_cast<StationId>(i + 1), t);
    }
    // Phase B: feedback for every slot ending at t.
    for (const int i : at) {
      const auto ui = static_cast<std::size_t>(i);
      if (!started[ui]) continue;
      const Slot& slot = slots[ui][next[ui]];
      const auto id = static_cast<StationId>(i + 1);
      ASSERT_EQ(feedback(live, slot.begin, t), ledger.feedback(slot.begin, t))
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
      begin_tx(live, id, t, slot.is_control, packet);
      Transmission tx;
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
    ASSERT_EQ(feedback(live, s, t), ledger.feedback(s, t))
        << "window=[" << s << "," << t << ")";
  }
}

TEST(WindowOpenDifferential, MatchesLedgerOnRandomSchedules) {
  const RestrainedSpec specs[] = {
      {}, {1, true}, {1, false}, {2, true}, {2, false}};
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL})
    for (const RestrainedSpec& spec : specs)
      for (const std::uint64_t prune_every : {0ULL, 3ULL})
        expect_matches_ledger(seed, spec, prune_every);
}

}  // namespace
}  // namespace asyncmac::channel
