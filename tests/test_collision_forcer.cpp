// Tests for the Theorem-4 adversary: against collision-free, no-control
// protocols it must force a collision or a queue overflow.
#include <gtest/gtest.h>

#include "adversary/collision_forcer.h"
#include "baselines/rrw.h"
#include "baselines/silence_tdma.h"
#include "core/ao_arrow.h"

namespace asyncmac {
namespace {

using adversary::CollisionForceOutcome;
using adversary::force_collision_or_overflow;

sim::ProtocolMaker tdma_factory() {
  return [] {
    return std::make_unique<baselines::SilenceCountTdmaProtocol>();
  };
}

sim::ProtocolMaker rrw_factory() {
  return [] { return std::make_unique<baselines::RrwProtocol>(); };
}

TEST(CollisionForcer, RejectsSynchronousBound) {
  EXPECT_THROW(
      force_collision_or_overflow(tdma_factory(), util::Ratio(1, 2), 10, 1),
      std::invalid_argument);
  EXPECT_THROW(
      force_collision_or_overflow(tdma_factory(), util::Ratio::zero(), 10, 2),
      std::invalid_argument);
}

TEST(CollisionForcer, BreaksSilenceCountTdma) {
  const auto out =
      force_collision_or_overflow(tdma_factory(), util::Ratio(1, 2), 20, 2);
  EXPECT_EQ(out.kind, CollisionForceOutcome::Kind::kCollisionForced)
      << "alpha=" << out.alpha << " beta=" << out.beta;
  EXPECT_GE(out.collisions, 2u);
  EXPECT_GT(out.x_ticks, 0);
  EXPECT_GT(out.y_ticks, 0);
  EXPECT_NE(out.x_ticks, out.y_ticks)
      << "the adversary should need genuinely different stretches";
}

TEST(CollisionForcer, BreaksSilenceCountTdmaAcrossParameters) {
  for (std::uint32_t R : {2u, 3u, 4u}) {
    for (int rho_pct : {30, 50, 80}) {
      const auto out = force_collision_or_overflow(
          tdma_factory(), util::Ratio(rho_pct, 100), 15, R);
      EXPECT_NE(out.kind, CollisionForceOutcome::Kind::kNoTransmission)
          << "R=" << R << " rho%=" << rho_pct;
      EXPECT_TRUE(out.kind == CollisionForceOutcome::Kind::kCollisionForced ||
                  out.kind == CollisionForceOutcome::Kind::kQueueOverflow);
    }
  }
}

TEST(CollisionForcer, BreaksRrw) {
  // RRW is collision-free and control-free at R = 1; Theorem 4 says no
  // such protocol survives R >= 2.
  const auto out =
      force_collision_or_overflow(rrw_factory(), util::Ratio(1, 2), 20, 2);
  EXPECT_TRUE(out.kind == CollisionForceOutcome::Kind::kCollisionForced ||
              out.kind == CollisionForceOutcome::Kind::kQueueOverflow);
}

TEST(CollisionForcer, TransmissionStartsAlignExactly) {
  const auto out =
      force_collision_or_overflow(tdma_factory(), util::Ratio(1, 2), 10, 3);
  ASSERT_EQ(out.kind, CollisionForceOutcome::Kind::kCollisionForced);
  // (T1-1) X == (T2-1) Y == the reported collision time.
  const Tick t1m1 = static_cast<Tick>(out.s_start + out.alpha - 1);
  const Tick t2m1 = static_cast<Tick>(out.s_start + out.beta - 1);
  EXPECT_EQ(t1m1 * out.x_ticks, out.collision_time);
  EXPECT_EQ(t2m1 * out.y_ticks, out.collision_time);
}

TEST(CollisionForcer, AoArrowToleratesTheConstruction) {
  // AO-ARRoW is *allowed* collisions (Table I row 2), so the forced
  // collision is not a contradiction for it — this documents that the
  // construction targets the collision-free model class specifically.
  sim::ProtocolMaker f = [] {
    return std::make_unique<core::AoArrowProtocol>();
  };
  const auto out = force_collision_or_overflow(f, util::Ratio(1, 2), 40, 2);
  // Whatever the outcome, the driver must terminate and classify it.
  EXPECT_TRUE(out.kind == CollisionForceOutcome::Kind::kCollisionForced ||
              out.kind == CollisionForceOutcome::Kind::kQueueOverflow ||
              out.kind == CollisionForceOutcome::Kind::kNoTransmission);
}

}  // namespace
}  // namespace asyncmac
