// Tests for the trace-level invariant checkers, plus their application to
// real executions of the ARRoW protocols (end-to-end consistency of the
// whole stack: protocols -> engine -> channel -> trace).
#include <gtest/gtest.h>

#include "adversary/injectors.h"
#include "channel/ledger.h"
#include "core/ao_arrow.h"
#include "core/ca_arrow.h"
#include "sim/engine.h"
#include "sim_helpers.h"
#include "trace/invariants.h"

namespace asyncmac {
namespace {

using trace::SlotRecord;

constexpr Tick U = kTicksPerUnit;

SlotRecord slot(StationId st, SlotIndex idx, Tick b, Tick e, SlotAction a,
                Feedback f) {
  return {st, idx, b, e, a, f};
}

// ------------------------------------------------------------- unit cases

TEST(Invariants, NoOverlapsAcceptsDisjointAndTouching) {
  std::vector<channel::Transmission> txs;
  txs.push_back({1, 0, U, false, 0, false, false});
  txs.push_back({2, U, 2 * U, false, 0, false, false});  // touching: fine
  txs.push_back({1, 5 * U, 6 * U, false, 0, false, false});
  EXPECT_TRUE(trace::check_no_overlaps(txs));
}

TEST(Invariants, NoOverlapsFlagsOverlap) {
  std::vector<channel::Transmission> txs;
  txs.push_back({1, 0, 2 * U, false, 0, false, false});
  txs.push_back({2, U, 3 * U, false, 0, false, false});
  const auto res = trace::check_no_overlaps(txs);
  EXPECT_FALSE(res);
  EXPECT_NE(res.what.find("overlap"), std::string::npos);
}

TEST(Invariants, ContiguityAcceptsProperTiling) {
  std::vector<SlotRecord> slots{
      slot(1, 1, 0, U, SlotAction::kListen, Feedback::kSilence),
      slot(2, 1, 0, 2 * U, SlotAction::kListen, Feedback::kSilence),
      slot(1, 2, U, 3 * U, SlotAction::kListen, Feedback::kSilence),
      slot(2, 2, 2 * U, 3 * U, SlotAction::kListen, Feedback::kSilence),
  };
  EXPECT_TRUE(trace::check_slot_contiguity(slots));
}

TEST(Invariants, ContiguityFlagsGapAndIndexJump) {
  std::vector<SlotRecord> gap{
      slot(1, 1, 0, U, SlotAction::kListen, Feedback::kSilence),
      slot(1, 2, 2 * U, 3 * U, SlotAction::kListen, Feedback::kSilence),
  };
  EXPECT_FALSE(trace::check_slot_contiguity(gap));

  std::vector<SlotRecord> jump{
      slot(1, 1, 0, U, SlotAction::kListen, Feedback::kSilence),
      slot(1, 3, U, 2 * U, SlotAction::kListen, Feedback::kSilence),
  };
  EXPECT_FALSE(trace::check_slot_contiguity(jump));
}

TEST(Invariants, FeedbackConsistencyFlagsWrongFeedback) {
  std::vector<SlotRecord> slots{
      slot(1, 1, 0, U, SlotAction::kTransmitPacket, Feedback::kAck),
      // Keep station 1's recorded timeline at least as long as station
      // 2's, so the bad slot lies inside the checkable prefix.
      slot(1, 2, U, 2 * U, SlotAction::kListen, Feedback::kSilence),
      // Listener claims silence although the transmission ended in its
      // slot (should be ack):
      slot(2, 1, 0, 2 * U, SlotAction::kListen, Feedback::kSilence),
  };
  const auto res = trace::check_feedback_consistency(slots);
  EXPECT_FALSE(res);
  EXPECT_NE(res.what.find("station 2"), std::string::npos);
}

// The check on a caller's replay: the same verdict and message, and the
// replay's feedback kept per slot (silence past the checkable horizon),
// which verify::check_channel_oracle goes on from.
TEST(Invariants, FeedbackConsistencyKeepsItsReplay) {
  std::vector<SlotRecord> slots{
      slot(1, 1, 0, U, SlotAction::kTransmitPacket, Feedback::kAck),
      slot(2, 1, 0, 2 * U, SlotAction::kListen, Feedback::kAck),
      slot(1, 2, U, 2 * U, SlotAction::kListen, Feedback::kSilence),
      // Past station 2's last recorded end: not checkable.
      slot(1, 3, 2 * U, 3 * U, SlotAction::kListen, Feedback::kBusy),
  };
  auto replay_of = [](const std::vector<SlotRecord>& s) {
    auto ledger = std::make_unique<channel::Ledger>();
    for (const auto& t : trace::transmissions_of(s)) ledger->add(t);
    return ledger;
  };
  const Tick horizon = trace::checkable_horizon(slots);
  std::vector<Feedback> replayed;
  EXPECT_TRUE(trace::check_feedback_consistency(slots, horizon,
                                                *replay_of(slots), &replayed));
  EXPECT_EQ(replayed, (std::vector<Feedback>{Feedback::kAck, Feedback::kAck,
                                             Feedback::kSilence,
                                             Feedback::kSilence}));

  slots[2].feedback = Feedback::kBusy;  // the replay hears silence
  const auto plain = trace::check_feedback_consistency(slots);
  const auto kept = trace::check_feedback_consistency(
      slots, horizon, *replay_of(slots), &replayed);
  EXPECT_FALSE(plain);
  EXPECT_FALSE(kept);
  EXPECT_EQ(kept.what, plain.what);
  EXPECT_NE(kept.what.find("station 1 slot 2"), std::string::npos);
}

TEST(Invariants, MirrorPropertyChecks) {
  std::vector<SlotRecord> good{
      slot(1, 1, 0, U, SlotAction::kListen, Feedback::kSilence),
      slot(1, 2, U, 2 * U, SlotAction::kTransmitPacket, Feedback::kBusy),
  };
  EXPECT_TRUE(trace::check_mirror_property(good));
  std::vector<SlotRecord> bad{
      slot(1, 1, 0, U, SlotAction::kTransmitPacket, Feedback::kAck),
  };
  EXPECT_FALSE(trace::check_mirror_property(bad));
}

TEST(Invariants, CyclicTurnOrder) {
  std::vector<channel::Transmission> good;
  good.push_back({1, 0, U, false, 0, false, false});
  good.push_back({1, U, 2 * U, false, 0, false, false});  // same burst
  good.push_back({2, 4 * U, 5 * U, false, 0, false, false});
  good.push_back({3, 8 * U, 9 * U, true, 0, false, false});
  good.push_back({1, 12 * U, 13 * U, false, 0, false, false});  // wraps
  EXPECT_TRUE(trace::check_cyclic_turn_order(good, 3));

  std::vector<channel::Transmission> bad = good;
  bad.push_back({3, 16 * U, 17 * U, false, 0, false, false});  // skips 2
  EXPECT_FALSE(trace::check_cyclic_turn_order(bad, 3));
}

// ------------------------------------------------- end-to-end application

template <typename P>
std::unique_ptr<sim::Engine> traced_run(std::uint32_t n, std::uint32_t R,
                                        util::Ratio rho, Tick horizon) {
  sim::EngineConfig cfg;
  cfg.n = n;
  cfg.bound_r = R;
  cfg.record_trace = true;
  auto e = std::make_unique<sim::Engine>(
      cfg, asyncmac::testing::make_protocols<P>(n),
      asyncmac::testing::make_slot_policy("perstation", n, R),
      std::make_unique<adversary::SaturatingInjector>(
          rho, 8 * U, adversary::TargetPattern::kRoundRobin));
  e->run(sim::until(horizon));
  return e;
}

TEST(Invariants, CaArrowFullTraceHonorsEverything) {
  auto e = traced_run<core::CaArrowProtocol>(4, 2, util::Ratio(6, 10),
                                             20000 * U);
  const auto& slots = e->trace().slots();
  ASSERT_GT(slots.size(), 1000u);
  EXPECT_TRUE(trace::check_slot_contiguity(slots));
  EXPECT_TRUE(trace::check_feedback_consistency(slots));
  const auto txs = trace::transmissions_of(slots);
  EXPECT_TRUE(trace::check_no_overlaps(txs)) << "CA-ARRoW overlapped";
  EXPECT_TRUE(trace::check_cyclic_turn_order(txs, 4));
}

TEST(Invariants, AoArrowTraceIsSelfConsistent) {
  auto e = traced_run<core::AoArrowProtocol>(3, 2, util::Ratio(1, 2),
                                             20000 * U);
  const auto& slots = e->trace().slots();
  ASSERT_GT(slots.size(), 1000u);
  EXPECT_TRUE(trace::check_slot_contiguity(slots));
  EXPECT_TRUE(trace::check_feedback_consistency(slots));
  // AO-ARRoW is allowed overlaps (collisions), so no no-overlap claim —
  // but the trace must replay to identical feedback, which the check
  // above just proved.
}

}  // namespace
}  // namespace asyncmac
