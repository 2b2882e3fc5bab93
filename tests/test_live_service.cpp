// Fault rehearsal for the live stack: scripted datagram drops and seeded
// random loss over the virtual clock exercise the retransmit/dedup
// machinery deterministically — the same paths real UDP hits
// nondeterministically. A lost request must be retransmitted, a lost
// reply must be re-served from the daemon's idempotent cache, and the
// run must still complete with a clean verdict; a dead daemon must not
// hang a station forever.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "live/daemon.h"
#include "live/station.h"
#include "live/virtual_net.h"
#include "live/wire.h"
#include "snapshot/checkpoint.h"

namespace asyncmac::live {
namespace {

snapshot::RunSpec small_spec() {
  snapshot::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 2;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(1, 2);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.seed = 4;
  spec.horizon_units = 60;
  spec.record_trace = true;
  return spec;
}

struct Fixture {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<StationMachine>> machines;
  std::vector<StationMachine*> ptrs;

  explicit Fixture(const snapshot::RunSpec& spec) {
    DaemonConfig dc;
    dc.spec = spec;
    daemon = std::make_unique<Daemon>(dc);
    for (StationId id = 1; id <= spec.n; ++id) {
      StationConfig sc;
      sc.id = id;
      sc.retry_ticks = units(4);
      machines.push_back(std::make_unique<StationMachine>(sc));
      ptrs.push_back(machines.back().get());
    }
  }

  std::uint64_t total_retransmits() const {
    std::uint64_t total = 0;
    for (const auto& m : machines) total += m->retransmits();
    return total;
  }
};

void expect_clean_completion(const Fixture& f) {
  EXPECT_TRUE(f.daemon->done());
  EXPECT_FALSE(f.daemon->failed()) << f.daemon->reason();
  for (const auto& m : f.machines) {
    EXPECT_TRUE(m->finished());
    EXPECT_EQ(m->exit_code(), 0);
    EXPECT_GT(m->slots_completed(), 0u);
  }
  EXPECT_GT(f.daemon->stats().delivered_packets, 0u);
}

TEST(LiveService, CleanRunCompletes) {
  Fixture f(small_spec());
  VirtualNet net(*f.daemon, f.ptrs, {});
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);
  EXPECT_EQ(f.total_retransmits(), 0u);
}

TEST(LiveService, DroppedJoinIsRetransmitted) {
  Fixture f(small_spec());
  VirtualNet net(*f.daemon, f.ptrs, {});
  // Station 1's very first datagram (its Join) vanishes.
  net.add_drop(/*to_station=*/false, 1, 0);
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);
  EXPECT_GE(f.machines[0]->retransmits(), 1u);
}

TEST(LiveService, DroppedRepliesAreReServedFromCache) {
  // Drop a few daemon->station replies mid-run (a Welcome/Grant/Feedback
  // depending on position): the station's retransmitted request must hit
  // the daemon's idempotent-resend path and the run must still finish.
  for (const std::uint64_t nth : {0ULL, 3ULL, 10ULL}) {
    SCOPED_TRACE(nth);
    Fixture f(small_spec());
    VirtualNet net(*f.daemon, f.ptrs, {});
    net.add_drop(/*to_station=*/true, 2, nth);
    ASSERT_TRUE(net.run());
    expect_clean_completion(f);
    EXPECT_GE(f.machines[1]->retransmits(), 1u);
  }
}

TEST(LiveService, DroppedSlotEndIsRecovered) {
  Fixture f(small_spec());
  VirtualNet net(*f.daemon, f.ptrs, {});
  // Station 1's datagrams: 0 = Join, 1 = Boundary(1), 2 = SlotEnd(1).
  net.add_drop(/*to_station=*/false, 1, 2);
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);
  EXPECT_GE(f.machines[0]->retransmits(), 1u);
}

TEST(LiveService, SeededRandomLossStillCompletes) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(seed);
    Fixture f(small_spec());
    EmulationKnobs knobs;
    knobs.loss = 0.05;
    knobs.seed = seed;
    VirtualNet net(*f.daemon, f.ptrs, knobs);
    ASSERT_TRUE(net.run());
    expect_clean_completion(f);
  }
}

TEST(LiveService, DelayAndJitterStillComplete) {
  Fixture f(small_spec());
  EmulationKnobs knobs;
  knobs.delay = kTicksPerUnit / 64;
  knobs.jitter = kTicksPerUnit / 64;
  knobs.seed = 7;
  VirtualNet net(*f.daemon, f.ptrs, knobs);
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);
}

TEST(LiveService, LossyRunMatchesCleanDeliveredWork) {
  // Loss changes timing (retries stretch slots) but must never corrupt
  // protocol state: the run completes, nothing is poisoned, and the
  // injected work is conserved (delivered + queued = injected).
  Fixture f(small_spec());
  EmulationKnobs knobs;
  knobs.loss = 0.1;
  knobs.seed = 11;
  VirtualNet net(*f.daemon, f.ptrs, knobs);
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);
  const auto& s = f.daemon->stats();
  EXPECT_EQ(s.delivered_packets + s.queued_packets, s.injected_packets);
}

TEST(LiveService, StationGivesUpOnDeadDaemon) {
  StationConfig sc;
  sc.id = 1;
  sc.retry_ticks = units(2);
  sc.max_retries = 3;
  StationMachine m(sc);
  auto acts = m.on_start(0);
  ASSERT_FALSE(acts.send.empty());  // the Join
  ASSERT_TRUE(acts.timer.has_value());
  int fired = 0;
  while (!m.finished() && fired < 100) {
    ASSERT_TRUE(acts.timer.has_value());
    acts = m.on_timer(*acts.timer);
    ++fired;
  }
  ASSERT_TRUE(m.finished());
  EXPECT_EQ(m.exit_code(), 1);  // gave up, not a clean fin
  EXPECT_EQ(m.retransmits(), 3u);
}

TEST(LiveService, MalformedDatagramsAreDroppedNotFatal) {
  Fixture f(small_spec());
  VirtualNet net(*f.daemon, f.ptrs, {});
  // Hand the daemon garbage alongside a normal run start: decode failures
  // must be swallowed (counted), never poison the run.
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00};
  const std::vector<std::vector<std::uint8_t>> wave = {garbage};
  const DaemonActions& acts = f.daemon->on_batch(0, wave);
  EXPECT_FALSE(f.daemon->failed());
  EXPECT_TRUE(acts.sends.empty());
  EXPECT_EQ(acts.senders, std::vector<StationId>{kInvalidStation});
  ASSERT_TRUE(net.run());
  expect_clean_completion(f);

  // Stations drop malformed input the same way.
  StationConfig sc;
  sc.id = 1;
  StationMachine m(sc);
  (void)m.on_start(0);
  auto sacts = m.on_datagram(1, garbage);
  EXPECT_FALSE(m.finished());
  EXPECT_TRUE(sacts.send.empty());
}

// A Welcome with a valid CRC, the station's own id and a registered
// protocol could still be forged: its n must not size the station.
// Above kMaxStations the Welcome is dropped like any malformed one.
TEST(LiveService, ForgedWelcomeCannotSizeAStation) {
  for (const std::uint32_t n :
       {kMaxStations + 1, kMaxStations, std::uint32_t{0xFFFFFFFF}}) {
    StationConfig sc;
    sc.id = 1;
    StationMachine m(sc);
    (void)m.on_start(0);
    Msg w;
    w.type = MsgType::kWelcome;
    w.station = 1;
    w.name = "mbtf";  // sizes its state by n
    w.n = n;
    w.bound_r = 2;
    StationMachine::Actions acts;
    ASSERT_NO_THROW(acts = m.on_datagram(1, encode(w))) << n;
    if (n <= kMaxStations) {
      // Joined: the protocol announces its first slot.
      ASSERT_FALSE(acts.send.empty()) << n;
      EXPECT_EQ(decode(acts.send).type, MsgType::kBoundary);
      continue;
    }
    // Still joining: nothing sent, and the retry timer resends the Join.
    EXPECT_TRUE(acts.send.empty()) << n;
    ASSERT_TRUE(acts.timer.has_value());
    acts = m.on_timer(*acts.timer);
    ASSERT_FALSE(acts.send.empty()) << n;
    EXPECT_EQ(decode(acts.send).type, MsgType::kJoin) << n;
  }
}

TEST(LiveService, DaemonRefusesMoreThanMaxStations) {
  snapshot::RunSpec spec = small_spec();
  spec.n = kMaxStations + 1;
  DaemonConfig dc;
  dc.spec = spec;
  EXPECT_THROW(Daemon{dc}, std::invalid_argument);
  EXPECT_THROW(run_virtual(spec, VirtualRunOptions{}), std::invalid_argument);
}

TEST(LiveService, ViolationPoisonsTheRun) {
  // A forged Boundary announcing a transmit for a station with an empty
  // queue must fail the run with Fins to everyone, not corrupt stats.
  snapshot::RunSpec spec = small_spec();
  spec.has_injector = false;  // nothing ever queued
  DaemonConfig dc;
  dc.spec = spec;
  Daemon daemon(dc);

  // Join both stations so the run starts.
  std::vector<std::vector<std::uint8_t>> joins;
  for (StationId id = 1; id <= 2; ++id) {
    Msg j;
    j.type = MsgType::kJoin;
    j.station = id;
    j.name = "t";
    joins.push_back(encode(j));
  }
  // The outbox names each input datagram's sender: a transport learns
  // the stations' addresses from it.
  EXPECT_EQ(daemon.on_batch(0, joins).senders,
            (std::vector<StationId>{1, 2}));
  ASSERT_TRUE(daemon.started());

  Msg b;
  b.type = MsgType::kBoundary;
  b.station = 1;
  b.slot_index = 1;
  b.action = SlotAction::kTransmitPacket;  // queue is empty: a violation
  const std::vector<std::vector<std::uint8_t>> wave = {encode(b)};
  const DaemonActions& acts = daemon.on_batch(0, wave);
  EXPECT_TRUE(daemon.failed());
  EXPECT_TRUE(daemon.done());
  EXPECT_FALSE(daemon.reason().empty());
  // Every station got a Fin{ok=false}.
  int fins = 0;
  for (const Outgoing& out : acts.sends) {
    const Msg m = decode(acts.datagram(out));
    if (m.type == MsgType::kFin) {
      EXPECT_FALSE(m.ok);
      ++fins;
    }
  }
  EXPECT_EQ(fins, 2);

  // After the run a retransmitted request gets its station's cached Fin
  // again, and senders still has one entry per datagram, 0 for garbage.
  const std::vector<std::vector<std::uint8_t>> late = {{0xde, 0xad},
                                                       encode(b)};
  const DaemonActions& again = daemon.on_batch(1, late);
  EXPECT_EQ(again.senders, (std::vector<StationId>{kInvalidStation, 1}));
  ASSERT_EQ(again.sends.size(), 1u);
  EXPECT_EQ(again.sends[0].to, 1u);
  EXPECT_EQ(decode(again.datagram(again.sends[0])).type, MsgType::kFin);
}

}  // namespace
}  // namespace asyncmac::live
