// Tests for the experimental extensions: AdaptiveAbs (leader election
// with UNKNOWN asynchrony bound — the Section VII open problem) and the
// BEB randomized baseline.
#include <gtest/gtest.h>

#include "adversary/mirror.h"
#include "adversary/slot_policies.h"
#include "baselines/beb.h"
#include "core/adaptive_abs.h"
#include "core/bounds.h"
#include "sim/engine.h"
#include "sim_helpers.h"

namespace asyncmac {
namespace {

using core::AdaptiveAbsProtocol;
using sim::Engine;
using sim::EngineConfig;

constexpr Tick U = kTicksPerUnit;

struct AdaptiveOutcome {
  bool solved = false;
  std::uint32_t winners = 0;
  std::uint32_t unfinished = 0;
  std::uint32_t max_epochs = 0;
  std::uint32_t winner_estimate = 0;
  std::uint64_t worst_slots = 0;
};

AdaptiveOutcome run_adaptive(std::uint32_t n, std::uint32_t true_r,
                             const std::string& policy,
                             std::uint64_t seed = 1) {
  EngineConfig cfg;
  cfg.n = n;
  cfg.bound_r = true_r;
  cfg.seed = seed;
  Engine e(cfg,
           asyncmac::testing::make_protocols<AdaptiveAbsProtocol>(n),
           asyncmac::testing::make_slot_policy(policy, n, true_r, seed),
           asyncmac::testing::sst_messages([&] {
             std::vector<StationId> all;
             for (StationId id = 1; id <= n; ++id) all.push_back(id);
             return all;
           }()));
  sim::StopCondition stop;
  // Generous: several doubling epochs, each bounded by the known-R cost.
  stop.max_time = static_cast<Tick>(400 * core::abs_slot_bound(n, true_r)) *
                  static_cast<Tick>(true_r) * U;
  stop.predicate = [](const Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);
  // The winner's ack reaches a loser at the end of the loser's slot that
  // contains the win — up to r time later; drain that window too.
  e.run(sim::until(e.now() + static_cast<Tick>(true_r) * U));

  AdaptiveOutcome out;
  out.solved = e.channel_stats().successful >= 1;
  for (StationId id = 1; id <= n; ++id) {
    const auto& p =
        dynamic_cast<const AdaptiveAbsProtocol&>(e.protocol(id));
    out.max_epochs = std::max(out.max_epochs, p.epochs());
    out.worst_slots = std::max(out.worst_slots, p.total_slots());
    switch (p.status()) {
      case AdaptiveAbsProtocol::Status::kWon:
        ++out.winners;
        out.winner_estimate = p.r_estimate();
        break;
      case AdaptiveAbsProtocol::Status::kRunning:
        ++out.unfinished;
        break;
      case AdaptiveAbsProtocol::Status::kObservedWinner:
        break;
    }
  }
  return out;
}

// ----------------------------------------------------------- AdaptiveAbs

TEST(AdaptiveAbs, SolvesSstWhenRIsActuallyOne) {
  const auto out = run_adaptive(8, 1, "sync");
  EXPECT_TRUE(out.solved);
  EXPECT_EQ(out.winners, 1u);
  EXPECT_EQ(out.unfinished, 0u);
  EXPECT_EQ(out.max_epochs, 1u) << "no doubling needed at r = 1";
}

struct AdaptiveParam {
  std::uint32_t n;
  std::uint32_t r;
  std::string policy;
};

class AdaptiveSweep : public ::testing::TestWithParam<AdaptiveParam> {};

TEST_P(AdaptiveSweep, ElectsExactlyOneWithUnknownBound) {
  const auto [n, r, policy] = GetParam();
  const auto out = run_adaptive(n, r, policy);
  ASSERT_TRUE(out.solved) << "SST never solved";
  EXPECT_EQ(out.winners, 1u);
  EXPECT_EQ(out.unfinished, 0u)
      << "every loser must detect the winner's ack";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveSweep,
    ::testing::Values(AdaptiveParam{2, 2, "perstation"},
                      AdaptiveParam{4, 2, "perstation"},
                      AdaptiveParam{4, 2, "cyclic"},
                      AdaptiveParam{8, 2, "perstation"},
                      AdaptiveParam{4, 4, "perstation"},
                      AdaptiveParam{8, 4, "cyclic"},
                      AdaptiveParam{6, 3, "random"},
                      AdaptiveParam{16, 2, "random"}),
    [](const ::testing::TestParamInfo<AdaptiveParam>& param_info) {
      std::string pol = param_info.param.policy;
      for (auto& c : pol)
        if (c == '-') c = '_';
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_r";
      name += std::to_string(param_info.param.r);
      name += "_";
      name += pol;
      return name;
    });

TEST(AdaptiveAbs, DoublesUnderMirroredFeedback) {
  // Benign fixed schedules rarely defeat epoch 1 (ABS is robust even with
  // an underestimated R on many of them), so exercise the doubling path
  // deterministically: drive the automaton with Theorem-2-style mirrored
  // feedback (listen -> silence, transmit -> busy). Its election can then
  // never resolve, the phase cap trips repeatedly, and the estimate must
  // keep doubling.
  AdaptiveAbsProtocol p;
  sim::StationContext ctx(2, 8, 8, 1);
  SlotAction a = p.next_action(std::nullopt, ctx);
  for (int step = 0; step < 500000 && p.r_estimate() < 16; ++step) {
    const sim::SlotResult mirrored{
        a, is_transmit(a) ? Feedback::kBusy : Feedback::kSilence, false};
    a = p.next_action(mirrored, ctx);
  }
  EXPECT_GE(p.r_estimate(), 16u) << "the estimate never doubled";
  EXPECT_GE(p.epochs(), 4u);
  EXPECT_EQ(p.status(), AdaptiveAbsProtocol::Status::kRunning);
}

TEST(AdaptiveAbs, MirrorAdversaryStallsItLikeAnyDeterministicAlgorithm) {
  // Theorem 2 applies to adaptive-ABS too: the mirror adversary builds a
  // verified execution in which nobody wins for many phases.
  sim::ProtocolMaker f = [] {
    return std::make_unique<AdaptiveAbsProtocol>();
  };
  adversary::MirrorRun run(f, 16, 2, 2);
  const auto res = run.run();
  EXPECT_TRUE(res.verified_mirror);
  EXPECT_GE(res.phases, 1u);
}

TEST(AdaptiveAbs, CostsMoreThanKnownRButTerminates) {
  // The doubling penalty: unknown-R needs more slots than ABS with the
  // right constant, but stays within a small factor of the known bound.
  const auto out = run_adaptive(8, 2, "perstation");
  ASSERT_TRUE(out.solved);
  EXPECT_GT(out.worst_slots, 0u);
  EXPECT_LT(out.worst_slots, 400 * core::abs_slot_bound(8, 2));
}

TEST(AdaptiveAbs, SeedSweepRandomPolicies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto out = run_adaptive(6, 3, "random", seed);
    ASSERT_TRUE(out.solved) << "seed " << seed;
    ASSERT_EQ(out.winners, 1u) << "seed " << seed;
  }
}

// ------------------------------------------------------------------- BEB

TEST(Beb, DeliversUnderLightLoad) {
  sim::EngineConfig cfg;
  cfg.n = 4;
  cfg.bound_r = 1;
  Engine e(cfg, asyncmac::testing::make_protocols<baselines::BebProtocol>(4),
           asyncmac::testing::make_slot_policy("sync", 4, 1),
           std::make_unique<adversary::SaturatingInjector>(
               util::Ratio(1, 10), 4 * U,
               adversary::TargetPattern::kRoundRobin));
  e.run(sim::until(100000 * U));
  EXPECT_GT(e.stats().delivered_packets,
            e.stats().injected_packets * 8 / 10);
}

TEST(Beb, BacksOffAfterCollisions) {
  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 1;
  Engine e(cfg, asyncmac::testing::make_protocols<baselines::BebProtocol>(2),
           asyncmac::testing::make_slot_policy("sync", 2, 1),
           std::make_unique<adversary::SaturatingInjector>(
               util::Ratio(3, 10), 6 * U,
               adversary::TargetPattern::kRoundRobin));
  e.run(sim::until(50000 * U));
  EXPECT_GT(e.channel_stats().collided, 0u);  // it does collide...
  EXPECT_GT(e.stats().delivered_packets, 1000u);  // ...and still delivers
}

TEST(Beb, WorksUnderAsynchronyToo) {
  sim::EngineConfig cfg;
  cfg.n = 3;
  cfg.bound_r = 2;
  Engine e(cfg, asyncmac::testing::make_protocols<baselines::BebProtocol>(3),
           asyncmac::testing::make_slot_policy("perstation", 3, 2),
           std::make_unique<adversary::SaturatingInjector>(
               util::Ratio(2, 10), 6 * U,
               adversary::TargetPattern::kRoundRobin));
  e.run(sim::until(100000 * U));
  EXPECT_GT(e.stats().delivered_packets,
            e.stats().injected_packets / 2);
}

TEST(Beb, DegradesUnderSaturation) {
  sim::EngineConfig cfg;
  cfg.n = 6;
  cfg.bound_r = 1;
  Engine e(cfg, asyncmac::testing::make_protocols<baselines::BebProtocol>(6),
           asyncmac::testing::make_slot_policy("sync", 6, 1),
           std::make_unique<adversary::SaturatingInjector>(
               util::Ratio(9, 10), 16 * U,
               adversary::TargetPattern::kRoundRobin));
  e.run(sim::until(100000 * U));
  // At rho = 0.9 BEB cannot keep up: a large backlog accumulates.
  EXPECT_GT(e.stats().queued_packets, 1000u);
}

}  // namespace
}  // namespace asyncmac
