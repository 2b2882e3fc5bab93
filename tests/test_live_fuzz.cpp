// Seed-replayable datagram fuzz for live mode. Valid datagrams of every
// message type are truncated, flipped, spliced, duplicated, reordered and
// re-addressed to out-of-range stations and slot indices, then fed to
// live::decode, to a Daemon mid-run (as extra datagrams in its waves) and
// to StationMachines mid-run. The contract under test:
//   * decode throws nothing but typed SnapshotErrors;
//   * nothing crashes;
//   * a run whose waves carry garbage finishes with the clean run's
//     stats, channel stats, backlog samples and verdict, and every
//     garbage datagram the daemon saw, and every one a station could not
//     decode, is counted in live.decode_errors or live.late_packets.
//
// Every case derives from one 64-bit seed (the verify::ScenarioGen
// idiom): a failure prints its case seed, and rerunning with that seed
// alone reproduces the exact datagrams. Runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "live/daemon.h"
#include "live/station.h"
#include "live/virtual_net.h"
#include "live/wire.h"
#include "telemetry/registry.h"

namespace asyncmac::live {
namespace {

using Bytes = std::vector<std::uint8_t>;
using snapshot::SnapshotError;

constexpr std::uint64_t kCampaignSeed = 0x11FEDA7A6EA5EEDull;
constexpr int kDecodeCases = 400;
constexpr int kRunCases = 12;
/// Slot indices at or above this are never reached by a run here.
constexpr SlotIndex kFarSlot = SlotIndex{1} << 40;

/// SplitMix64 — decorrelated per-case seeds from the campaign seed.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t below(std::mt19937_64& rng, std::uint64_t n) {
  return rng() % n;
}

/// A slot index no run reaches: 0 (before every first slot) or far away.
SlotIndex far_slot(std::mt19937_64& rng) {
  return below(rng, 4) == 0 ? 0 : kFarSlot + below(rng, kFarSlot);
}

/// An id outside 1..n: 0, just past n, or far past it.
StationId far_station(std::mt19937_64& rng, std::uint32_t n) {
  switch (below(rng, 3)) {
    case 0: return 0;
    case 1: return static_cast<StationId>(n + 1 + below(rng, 4));
    default: return 0xFFFFFFFFu - static_cast<StationId>(below(rng, 4));
  }
}

/// A well-formed message of a seed-chosen type. Slot indices are
/// out of range, so even a pristine copy cannot advance a run; every
/// other field is plausible. No Fin: a valid Fin legitimately ends a
/// station.
Msg pool_message(std::mt19937_64& rng, std::uint32_t n) {
  Msg m;
  m.type = static_cast<MsgType>(1 + below(rng, 6));  // Join .. Feedback
  m.station = static_cast<StationId>(1 + below(rng, n));
  m.slot_index = far_slot(rng);
  m.action = static_cast<SlotAction>(below(rng, 3));
  m.feedback = static_cast<Feedback>(below(rng, 3));
  m.delivered = below(rng, 2) == 0;
  m.length = static_cast<Tick>(
      1 + below(rng, static_cast<std::uint64_t>(4 * kTicksPerUnit)));
  m.n = n;
  m.bound_r = static_cast<std::uint32_t>(1 + below(rng, 4));
  m.rng_seed = rng();
  m.horizon_ticks = units(static_cast<Tick>(1 + below(rng, 100)));
  if (m.type == MsgType::kJoin)
    m.name = "station-" + std::to_string(m.station);
  if (m.type == MsgType::kWelcome)
    m.name = below(rng, 2) ? "ca-arrow" : "bogus";
  if (m.type == MsgType::kWelcome || m.type == MsgType::kFeedback) {
    for (std::uint64_t i = 0, k = below(rng, 4); i < k; ++i)
      m.injections.push_back({static_cast<Tick>(below(rng, 1000)),
                              kTicksPerUnit});
  }
  return m;
}

/// One mutated datagram built from `base` (a pool message's encoding or
/// a copy of a datagram already on the wire).
Bytes mutate(std::mt19937_64& rng, Bytes f, std::uint32_t n) {
  switch (below(rng, 7)) {
    case 0:  // pristine (a duplicate when `f` came off the wire)
      break;
    case 1:  // truncate
      f.resize(below(rng, f.size() + 1));
      break;
    case 2:  // flip 1-4 bits anywhere
      for (std::uint64_t k = 0, flips = 1 + below(rng, 4); k < flips; ++k)
        if (!f.empty())
          f[below(rng, f.size())] ^=
              static_cast<std::uint8_t>(1u << below(rng, 8));
      break;
    case 3: {  // splice random bytes in
      const auto at = static_cast<std::ptrdiff_t>(below(rng, f.size() + 1));
      Bytes junk(1 + below(rng, 24));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
      f.insert(f.begin() + at, junk.begin(), junk.end());
      break;
    }
    case 4:  // forge the length field
      if (f.size() > 16)
        f[9 + below(rng, 8)] = static_cast<std::uint8_t>(rng());
      break;
    case 5: {  // re-address to an out-of-range station (re-encoded: valid CRC)
      Msg m = pool_message(rng, n);
      m.station = far_station(rng, n);
      f = encode(m);
      break;
    }
    default: {  // pure noise, sometimes behind a valid magic
      f.assign(below(rng, 64), 0);
      for (auto& b : f) b = static_cast<std::uint8_t>(rng());
      if (f.size() >= 4 && below(rng, 2) == 0)
        std::copy(kDatagramMagic, kDatagramMagic + 4, f.begin());
      break;
    }
  }
  return f;
}

/// decode, reporting anything but a typed SnapshotError as a failure.
std::optional<Msg> try_decode(const Bytes& bytes, std::uint64_t case_seed) {
  try {
    return decode(bytes);
  } catch (const SnapshotError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "case seed " << case_seed << ": untyped error "
                  << e.what();
  } catch (...) {
    ADD_FAILURE() << "case seed " << case_seed << ": non-standard exception";
  }
  return std::nullopt;
}

TEST(LiveFuzz, DecodeThrowsOnlyTypedErrors) {
  for (int c = 0; c < kDecodeCases; ++c) {
    const std::uint64_t case_seed =
        mix64(kCampaignSeed + static_cast<std::uint64_t>(c));
    SCOPED_TRACE("case seed " + std::to_string(case_seed));
    std::mt19937_64 rng(case_seed);
    Bytes base = encode(pool_message(rng, 4));
    for (int k = 0; k < 4; ++k) {
      const Bytes bytes = mutate(rng, base, 4);
      if (const auto m = try_decode(bytes, case_seed)) {
        // Whatever decodes re-encodes to the same bytes.
        EXPECT_EQ(encode(*m), bytes);
      }
      base = bytes.size() >= kDatagramHeaderBytes ? bytes : base;
    }
  }
}

/// True for a decoded station-to-daemon message that could advance a run
/// if it came from the station it names: Boundary/SlotEnd for an
/// in-range station and slot. Those are legitimate traffic, not garbage,
/// unless they are copies of datagrams already on the wire.
bool could_be_legit_to_daemon(const Msg& m, std::uint32_t n) {
  return (m.type == MsgType::kBoundary || m.type == MsgType::kSlotEnd) &&
         m.station >= 1 && m.station <= n && m.slot_index >= 1 &&
         m.slot_index < kFarSlot;
}

/// The station-side analogue: a Grant or Feedback for an in-range slot,
/// or any Fin.
bool could_be_legit_to_station(const Msg& m) {
  return m.type == MsgType::kFin ||
         ((m.type == MsgType::kGrant || m.type == MsgType::kFeedback) &&
          m.slot_index >= 1 && m.slot_index < kFarSlot);
}

struct RunResult {
  bool completed = false;
  bool failed = false;
  metrics::RunStats stats;
  channel::LedgerStats channel;
  std::vector<Tick> samples;
  analysis::Verdict verdict = analysis::Verdict::kStable;
  /// live.decode_errors + live.late_packets at the end of the run.
  std::uint64_t counted = 0;
  /// Garbage fed that the counters must show: every daemon-bound piece,
  /// and every station-bound piece that failed to decode.
  std::uint64_t expected_counted = 0;
  std::uint64_t garbage = 0;  ///< all garbage datagrams fed
};

/// Daemon + station machines on a zero-latency clock with VirtualNet's
/// delivery discipline (station deliveries, due timers, then one daemon
/// wave per round). With garbage_seed != 0, waves of a started run gain
/// seeded garbage and are shuffled, and stations get garbage right after
/// some of their deliveries.
RunResult run(const analysis::RunSpec& spec, std::uint64_t garbage_seed) {
  telemetry::Registry::global().reset_values();
  DaemonConfig dc;
  dc.spec = spec;
  Daemon daemon(dc);
  const std::uint32_t n = spec.n;
  std::vector<std::unique_ptr<StationMachine>> machines;
  for (StationId id = 1; id <= n; ++id) {
    StationConfig sc;
    sc.id = id;
    machines.push_back(std::make_unique<StationMachine>(sc));
  }
  std::mt19937_64 rng(garbage_seed);
  RunResult r;
  std::deque<std::pair<StationId, Bytes>> to_station;
  std::vector<Bytes> to_daemon;
  std::vector<Bytes> on_wire;  ///< legitimate daemon-bound datagrams so far
  std::vector<std::optional<Tick>> timers(n);
  // A machine's send view and the daemon's outbox last only until the
  // machine's next call, so both are copied out at once.
  auto apply = [&](StationId id, StationMachine::Actions a) {
    if (!a.send.empty()) to_daemon.emplace_back(a.send.begin(), a.send.end());
    timers[id - 1] = a.finished ? std::nullopt : a.timer;
  };
  auto all_finished = [&] {
    return daemon.done() &&
           std::all_of(machines.begin(), machines.end(),
                       [](const auto& m) { return m->finished(); });
  };

  for (StationId id = 1; id <= n; ++id)
    apply(id, machines[id - 1]->on_start(0));
  Tick now = 0;
  for (int rounds = 0; rounds < 10'000'000 && !all_finished(); ++rounds) {
    bool progressed = false;
    while (!to_station.empty()) {
      auto [id, bytes] = std::move(to_station.front());
      to_station.pop_front();
      StationMachine& m = *machines[id - 1];
      apply(id, m.on_datagram(now, bytes));
      progressed = true;
      if (garbage_seed == 0 || m.finished() || m.slots_completed() == 0 ||
          below(rng, 4) != 0)
        continue;
      Bytes g = mutate(rng, encode(pool_message(rng, n)), n);
      const auto decoded = try_decode(g, garbage_seed);
      if (decoded && could_be_legit_to_station(*decoded)) continue;
      ++r.garbage;
      if (!decoded) ++r.expected_counted;
      apply(id, m.on_datagram(now, g));
    }
    for (StationId id = 1; id <= n; ++id) {
      if (timers[id - 1] && *timers[id - 1] <= now) {
        timers[id - 1].reset();
        apply(id, machines[id - 1]->on_timer(now));
        progressed = true;
      }
    }
    if (!to_daemon.empty()) {
      std::vector<Bytes> wave = std::move(to_daemon);
      to_daemon.clear();
      if (garbage_seed != 0 && daemon.started() && !daemon.done()) {
        const std::size_t legit = wave.size();
        on_wire.insert(on_wire.end(), wave.begin(), wave.end());
        for (std::uint64_t k = 0, extra = below(rng, 4); k < extra; ++k) {
          // Mutate a pool message or a datagram already on the wire.
          const bool copy = below(rng, 2) == 0;
          Bytes g = mutate(rng,
                           copy ? on_wire[below(rng, on_wire.size())]
                                : encode(pool_message(rng, n)),
                           n);
          const auto decoded = try_decode(g, garbage_seed);
          if (decoded && could_be_legit_to_daemon(*decoded, n) &&
              std::find(on_wire.begin(), on_wire.end(), g) == on_wire.end())
            continue;
          wave.push_back(std::move(g));
        }
        r.garbage += wave.size() - legit;
        r.expected_counted += wave.size() - legit;
        std::shuffle(wave.begin(), wave.end(), rng);
      }
      const DaemonActions& acts = daemon.on_batch(now, wave);
      for (const Outgoing& o : acts.sends) {
        const auto bytes = acts.datagram(o);
        to_station.emplace_back(o.to, Bytes(bytes.begin(), bytes.end()));
      }
      progressed = true;
    }
    if (progressed) continue;
    Tick next = kTickInfinity;
    for (const auto& t : timers)
      if (t) next = std::min(next, *t);
    if (next == kTickInfinity) break;  // deadlock: reported as incomplete
    now = next;
  }
  r.completed = all_finished();
  r.failed = daemon.failed();
  r.stats = daemon.stats();
  r.channel = daemon.live_channel_stats();
  r.samples = daemon.backlog_samples();
  if (r.completed) r.verdict = daemon.verdict();
  auto& reg = telemetry::Registry::global();
  r.counted = reg.counter("live.decode_errors").value() +
              reg.counter("live.late_packets").value();
  return r;
}

analysis::RunSpec fuzz_spec(std::uint64_t case_seed) {
  std::mt19937_64 rng(case_seed);
  static const char* const kProtocols[] = {"ca-arrow", "ao-arrow", "aloha",
                                           "rrw"};
  analysis::RunSpec spec;
  spec.protocol = kProtocols[below(rng, 4)];
  spec.n = static_cast<std::uint32_t>(2 + below(rng, 3));
  spec.bound_r = static_cast<std::uint32_t>(1 + below(rng, 3));
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho =
      util::Ratio(static_cast<std::int64_t>(3 + below(rng, 5)), 10);
  spec.injector.pattern = "roundrobin";
  spec.injector.seed = case_seed;
  spec.seed = case_seed;
  spec.horizon_units = 400;
  spec.prune_interval = 1 + below(rng, 16);
  if (below(rng, 3) == 0)
    spec.restrained = {static_cast<std::uint32_t>(1 + below(rng, 2)),
                       below(rng, 2) == 0};
  return spec;
}

TEST(LiveFuzz, GarbageWavesLeaveTheRunUnchanged) {
  telemetry::set_enabled(true);
  for (int c = 0; c < kRunCases; ++c) {
    const std::uint64_t case_seed =
        mix64(kCampaignSeed ^ 0xDA7Au) + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("case seed " + std::to_string(case_seed));
    const analysis::RunSpec spec = fuzz_spec(case_seed);
    const RunResult clean = run(spec, 0);
    ASSERT_TRUE(clean.completed);
    ASSERT_FALSE(clean.failed);
    // The harness delivers like VirtualNet: the clean run is run_virtual's.
    const VirtualRunReport report = run_virtual(spec);
    ASSERT_EQ(clean.stats, report.stats);
    ASSERT_EQ(clean.channel, report.channel);
    ASSERT_EQ(clean.samples, report.samples);

    const RunResult noisy = run(spec, mix64(case_seed));
    EXPECT_GT(noisy.garbage, 0u);
    EXPECT_TRUE(noisy.completed);
    EXPECT_FALSE(noisy.failed);
    EXPECT_EQ(noisy.stats, clean.stats);
    EXPECT_EQ(noisy.channel, clean.channel);
    EXPECT_EQ(noisy.samples, clean.samples);
    EXPECT_EQ(noisy.verdict, clean.verdict);
    EXPECT_EQ(noisy.counted - clean.counted, noisy.expected_counted);
  }
  telemetry::set_enabled(false);
}

/// Replayability pin: garbage is a pure function of the seed.
TEST(LiveFuzz, GarbageReplaysByteIdenticalFromSeed) {
  for (int c = 0; c < 10; ++c) {
    const std::uint64_t case_seed =
        mix64(kCampaignSeed + static_cast<std::uint64_t>(c));
    std::mt19937_64 a(case_seed), b(case_seed);
    EXPECT_EQ(mutate(a, encode(pool_message(a, 3)), 3),
              mutate(b, encode(pool_message(b, 3)), 3));
  }
}

}  // namespace
}  // namespace asyncmac::live
