// Tests for ABS (Section III-A): SST correctness — exactly one winner, no
// premature success, slot bounds (Theorem 1), and the structural lemmas —
// across sweeps of n, R, slot policies and participating subsets.
#include <gtest/gtest.h>

#include <set>

#include "adversary/slot_policies.h"
#include "baselines/listen.h"
#include "core/abs.h"
#include "core/bounds.h"
#include "sim/engine.h"
#include "sim_helpers.h"

namespace asyncmac {
namespace {

using core::AbsAutomaton;
using core::AbsProtocol;
using sim::Engine;
using sim::EngineConfig;
using sim::StopCondition;

constexpr Tick U = kTicksPerUnit;

struct SstOutcome {
  StationId winner = kInvalidStation;
  std::uint32_t winners = 0;
  std::uint32_t still_active = 0;
  std::uint64_t winner_slots = 0;
  std::uint64_t max_participant_slots = 0;
  bool solved = false;
  Tick solved_at = 0;
};

// Run SST: `participants` run ABS with one queued message each; the rest
// only listen. Returns the outcome after the first successful
// transmission (or after the timeout).
SstOutcome run_sst(std::uint32_t n, std::uint32_t R,
                   const std::vector<StationId>& participants,
                   const std::string& policy, std::uint64_t seed = 1) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.bound_r = R;
  cfg.seed = seed;

  std::set<StationId> part(participants.begin(), participants.end());
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  for (StationId id = 1; id <= n; ++id) {
    if (part.count(id))
      protocols.push_back(std::make_unique<AbsProtocol>());
    else
      protocols.push_back(std::make_unique<baselines::ListenProtocol>());
  }
  Engine e(cfg, std::move(protocols),
           asyncmac::testing::make_slot_policy(policy, n, R, seed),
           asyncmac::testing::sst_messages(participants));

  const std::uint64_t slot_bound = core::abs_slot_bound(n, R);
  StopCondition stop;
  stop.max_time = static_cast<Tick>(10 * slot_bound) *
                  static_cast<Tick>(R) * U;
  stop.predicate = [](const Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);
  // The predicate may fire on an observer's event before the winner's own
  // slot-end event (same timestamp) is processed; drain the tie so every
  // automaton sees its final feedback.
  e.run(sim::until(e.now()));

  SstOutcome out;
  out.solved = e.channel_stats().successful >= 1;
  out.solved_at = e.now();
  for (StationId id : participants) {
    const auto* abs =
        dynamic_cast<const AbsProtocol&>(e.protocol(id)).automaton();
    if (abs == nullptr) {
      ADD_FAILURE() << "station " << id << " never started";
      continue;
    }
    out.max_participant_slots =
        std::max(out.max_participant_slots, abs->slots());
    switch (abs->outcome()) {
      case AbsAutomaton::Outcome::kWon:
        ++out.winners;
        out.winner = id;
        out.winner_slots = abs->slots();
        break;
      case AbsAutomaton::Outcome::kActive:
        ++out.still_active;
        break;
      case AbsAutomaton::Outcome::kEliminated:
        break;
    }
  }
  return out;
}

// ------------------------------------------------------------ single cases

TEST(Abs, SingleStationWinsAlone) {
  const auto out = run_sst(1, 1, {1}, "sync");
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.winners, 1u);
  EXPECT_EQ(out.winner, 1u);
  // box 1 (1 slot) + threshold1 (bit0 of ID 1 is 1 -> 7 slots) + transmit.
  EXPECT_EQ(out.winner_slots, 9u);
}

TEST(Abs, TwoStationsSyncZeroBitWins) {
  // IDs 1 (LSB 1) and 2 (LSB 0): station 2 listens 3R slots, transmits
  // first; station 1 hears busy and is eliminated.
  const auto out = run_sst(2, 1, {1, 2}, "sync");
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.winner, 2u);
  EXPECT_EQ(out.winner_slots, 5u);  // 1 + 3 + 1 transmit
  EXPECT_EQ(out.solved_at, 5 * U);
}

TEST(Abs, IdBitsAboveTheIdWidthReadAsZero) {
  // Elections that outrun 32 phases (equal thresholds never eliminate
  // anyone) keep reading ID bits; past bit 31 they are leading zeros.
  EXPECT_TRUE(core::id_bit(0x80000001u, 0));
  EXPECT_FALSE(core::id_bit(0x80000001u, 1));
  EXPECT_TRUE(core::id_bit(0x80000001u, 31));
  for (const std::uint32_t phase : {32u, 33u, 63u, 64u, 1000u})
    EXPECT_FALSE(core::id_bit(0xffffffffu, phase)) << phase;
}

TEST(Abs, NonParticipantsStayOut) {
  const auto out = run_sst(8, 2, {3, 5}, "perstation");
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.winners, 1u);
  EXPECT_TRUE(out.winner == 3 || out.winner == 5);
}

TEST(Abs, WinnerDeliversItsMessage) {
  EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 2;
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.push_back(std::make_unique<AbsProtocol>());
  protocols.push_back(std::make_unique<AbsProtocol>());
  Engine e(cfg, std::move(protocols),
           asyncmac::testing::make_slot_policy("perstation", 2, 2),
           asyncmac::testing::sst_messages({1, 2}));
  StopCondition stop;
  stop.max_time = 100000 * U;
  stop.predicate = [](const Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);
  e.run(sim::until(e.now()));  // drain same-timestamp events
  EXPECT_EQ(e.stats().delivered_packets, 1u);
}

// -------------------------------------------------------- property sweeps

struct SweepParam {
  std::uint32_t n;
  std::uint32_t R;
  std::string policy;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  auto p = info.param;
  std::string pol = p.policy;
  for (auto& c : pol)
    if (c == '-') c = '_';
  std::string name = "n";
  name += std::to_string(p.n);
  name += "_R";
  name += std::to_string(p.R);
  name += "_";
  name += pol;
  return name;
}

class AbsSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AbsSweep, ExactlyOneWinnerWithinTheoremOneBound) {
  const auto [n, R, policy] = GetParam();
  std::vector<StationId> everyone;
  for (StationId id = 1; id <= n; ++id) everyone.push_back(id);
  const auto out = run_sst(n, R, everyone, policy);
  ASSERT_TRUE(out.solved) << "SST not solved";
  EXPECT_EQ(out.winners, 1u);
  // Theorem 1: O(R^2 log n) slots; our constants give abs_slot_bound.
  EXPECT_LE(out.max_participant_slots, core::abs_slot_bound(n, R));
}

INSTANTIATE_TEST_SUITE_P(
    NRPolicy, AbsSweep,
    ::testing::Values(
        SweepParam{2, 1, "sync"}, SweepParam{2, 2, "perstation"},
        SweepParam{2, 4, "cyclic"}, SweepParam{3, 2, "random"},
        SweepParam{4, 1, "sync"}, SweepParam{4, 2, "perstation"},
        SweepParam{4, 3, "cyclic"}, SweepParam{4, 4, "random"},
        SweepParam{5, 2, "max"}, SweepParam{7, 3, "random"},
        SweepParam{8, 1, "sync"}, SweepParam{8, 2, "cyclic"},
        SweepParam{8, 4, "perstation"}, SweepParam{8, 8, "random"},
        SweepParam{13, 2, "random"}, SweepParam{16, 2, "perstation"},
        SweepParam{16, 4, "cyclic"}, SweepParam{31, 3, "random"},
        SweepParam{32, 2, "cyclic"}, SweepParam{64, 2, "random"},
        SweepParam{64, 4, "perstation"}, SweepParam{128, 2, "random"},
        SweepParam{16, 2, "stretch-tx"}, SweepParam{8, 4, "stretch-tx"},
        SweepParam{16, 2, "max"}, SweepParam{64, 8, "random"}),
    param_name);

class AbsSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AbsSeedSweep, RandomPoliciesAlwaysElectExactlyOne) {
  const std::uint64_t seed = GetParam();
  std::vector<StationId> everyone;
  for (StationId id = 1; id <= 12; ++id) everyone.push_back(id);
  const auto out = run_sst(12, 4, everyone, "random", seed);
  ASSERT_TRUE(out.solved);
  EXPECT_EQ(out.winners, 1u);
  EXPECT_LE(out.max_participant_slots, core::abs_slot_bound(12, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------- structural lemmas

TEST(Abs, NoSuccessfulTransmissionBeforeWinnerLemma4Corollary) {
  // During ABS every transmission before the deciding one collides:
  // the count of successful transmissions at the end must be exactly 1.
  for (std::uint32_t R : {1u, 2u, 4u}) {
    std::vector<StationId> everyone;
    for (StationId id = 1; id <= 8; ++id) everyone.push_back(id);
    EngineConfig cfg;
    cfg.n = 8;
    cfg.bound_r = R;
    std::vector<std::unique_ptr<sim::Protocol>> protocols;
    for (StationId id = 1; id <= 8; ++id) {
      (void)id;
      protocols.push_back(std::make_unique<AbsProtocol>());
    }
    Engine e(cfg, std::move(protocols),
             asyncmac::testing::make_slot_policy("perstation", 8, R),
             asyncmac::testing::sst_messages(everyone));
    StopCondition stop;
    stop.max_time = 1000000 * U;
    stop.predicate = [](const Engine& eng) {
      return eng.channel_stats().successful >= 1;
    };
    e.run(stop);
    EXPECT_EQ(e.channel_stats().successful, 1u) << "R=" << R;
  }
}

TEST(Abs, PhaseAlignmentLemma1) {
  // Trace-level check of Lemma 1: alive stations' transmissions within a
  // phase pairwise overlap (no two disjoint transmissions per Lemma 4).
  EngineConfig cfg;
  cfg.n = 6;
  cfg.bound_r = 3;
  cfg.keep_channel_history = true;
  std::vector<StationId> everyone{1, 2, 3, 4, 5, 6};
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  for (int i = 0; i < 6; ++i)
    protocols.push_back(std::make_unique<AbsProtocol>());
  Engine e(cfg, std::move(protocols),
           asyncmac::testing::make_slot_policy("perstation", 6, 3),
           asyncmac::testing::sst_messages(everyone));
  StopCondition stop;
  stop.max_time = 1000000 * U;
  stop.predicate = [](const Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);

  // Collect all transmissions; group into "contention clusters" (maximal
  // sets of transmissions connected by overlap). Lemma 4 implies each
  // cluster's transmissions pairwise intersect in time. Verify pairwise
  // overlap inside every cluster.
  std::vector<channel::Transmission> txs(e.ledger().full_history());
  for (const auto& t : e.ledger().window()) txs.push_back(t);
  ASSERT_FALSE(txs.empty());
  std::vector<std::vector<channel::Transmission>> clusters;
  for (const auto& t : txs) {
    if (!clusters.empty()) {
      auto& last = clusters.back();
      bool touches = false;
      for (const auto& u : last)
        if (channel::intervals_overlap(u.begin, u.end, t.begin, t.end))
          touches = true;
      if (touches) {
        last.push_back(t);
        continue;
      }
    }
    clusters.push_back({t});
  }
  for (const auto& cluster : clusters)
    for (std::size_t i = 0; i < cluster.size(); ++i)
      for (std::size_t j = i + 1; j < cluster.size(); ++j)
        EXPECT_TRUE(channel::intervals_overlap(
            cluster[i].begin, cluster[i].end, cluster[j].begin,
            cluster[j].end))
            << "disjoint transmissions inside one contention cluster";
}

TEST(Abs, SlotsGrowRoughlyLogarithmicallyInN) {
  std::uint64_t prev = 0;
  for (std::uint32_t n : {4u, 16u, 64u}) {
    std::vector<StationId> everyone;
    for (StationId id = 1; id <= n; ++id) everyone.push_back(id);
    const auto out = run_sst(n, 2, everyone, "perstation");
    ASSERT_TRUE(out.solved);
    EXPECT_GE(out.max_participant_slots, prev);  // monotone-ish
    prev = out.max_participant_slots / 4;        // allow slack
  }
}

// ------------------------------------------------------------- ablations

TEST(AbsAblation, UnderestimatedRBreaksElection) {
  // Build ABS automata believing R = 1 while the true bound is 4: the
  // asymmetric thresholds are then too short to separate bit groups and
  // the election may fail (no winner within the R=1 bound) or elect more
  // than one. We assert only that the *correct* parameterization works
  // where the broken one gives no single clean winner in the same time.
  EngineConfig cfg;
  cfg.n = 4;
  cfg.bound_r = 4;
  std::vector<StationId> everyone{1, 2, 3, 4};
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  for (int i = 0; i < 4; ++i)
    protocols.push_back(std::make_unique<AbsProtocol>(
        core::abs_threshold0(1), core::abs_threshold1(1)));  // wrong R
  Engine e(cfg, std::move(protocols),
           asyncmac::testing::make_slot_policy("perstation", 4, 4),
           asyncmac::testing::sst_messages(everyone));
  StopCondition stop;
  stop.max_time = 2000 * U;
  stop.predicate = [](const Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);
  e.run(sim::until(e.now()));  // drain same-timestamp events
  std::uint32_t winners = 0;
  std::uint32_t eliminated = 0;
  for (StationId id = 1; id <= 4; ++id) {
    const auto* abs =
        dynamic_cast<const AbsProtocol&>(e.protocol(id)).automaton();
    if (abs && abs->outcome() == AbsAutomaton::Outcome::kWon) ++winners;
    if (abs && abs->outcome() == AbsAutomaton::Outcome::kEliminated)
      ++eliminated;
  }
  // A healthy election ends with exactly one winner and everyone else
  // eliminated by the end of the winner's phase (Theorem 1's proof). The
  // mis-parameterized run must break that: no winner at all, several
  // winners, or stations left dangling in the protocol after a success.
  const bool healthy = (winners == 1) && (winners + eliminated == 4);
  EXPECT_FALSE(healthy)
      << "underestimating R unexpectedly produced a clean election";
}

TEST(AbsAblation, EqualThresholdsLoseTheAsymmetry) {
  // With threshold0 == threshold1 all same-phase stations transmit in
  // near-lockstep and elimination by bit value disappears; at R=1 both
  // stations with complementary LSBs collide instead of separating.
  EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 1;
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  for (int i = 0; i < 2; ++i)
    protocols.push_back(std::make_unique<AbsProtocol>(3, 3));
  Engine e(cfg, std::move(protocols),
           asyncmac::testing::make_slot_policy("sync", 2, 1),
           asyncmac::testing::sst_messages({1, 2}));
  StopCondition stop;
  stop.max_total_slots = 12;  // both phase-0 transmissions happen inside
  e.run(stop);
  EXPECT_GE(e.channel_stats().collided, 2u)
      << "symmetric thresholds should collide in phase 0";
}

}  // namespace
}  // namespace asyncmac
