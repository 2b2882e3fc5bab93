// Tests for the Theorem-2 mirror-execution lower-bound adversary: the
// constructed executions must verify as true mirror executions on the
// exact channel model, and the slots they force match the
// Omega(r (log n / log r + 1)) bound's shape.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/mirror.h"
#include "baselines/sync_binary_le.h"
#include "core/abs.h"
#include "core/bounds.h"

namespace asyncmac {
namespace {

using adversary::MirrorResult;
using adversary::MirrorRun;

sim::ProtocolMaker abs_factory() {
  return [] { return std::make_unique<core::AbsProtocol>(); };
}

sim::ProtocolMaker sync_le_factory() {
  return [] {
    return std::make_unique<baselines::SyncBinaryLeProtocol>();
  };
}

TEST(Mirror, RejectsDegenerateParameters) {
  EXPECT_THROW(MirrorRun(abs_factory(), 1, 2, 2), std::invalid_argument);
  EXPECT_THROW(MirrorRun(abs_factory(), 4, 1, 2), std::invalid_argument);
  EXPECT_THROW(MirrorRun(abs_factory(), 4, 4, 2), std::invalid_argument);
}

TEST(Mirror, AgainstAbsProducesVerifiedMirrorExecution) {
  MirrorRun run(abs_factory(), 16, 2, 2);
  const MirrorResult res = run.run();
  EXPECT_TRUE(res.verified_mirror);
  EXPECT_GE(res.survivors.size(), 2u);
  EXPECT_GE(res.phases, 1u);
  EXPECT_EQ(res.slots_per_station, static_cast<std::uint64_t>(res.phases) * 2);
}

TEST(Mirror, ForcesAtLeastTheTheoremTwoSlots) {
  // The adversary withholds success for at least the formula's order.
  for (std::uint32_t r : {2u, 4u}) {
    for (std::uint32_t n : {16u, 64u}) {
      MirrorRun run(abs_factory(), n, r, r);
      const MirrorResult res = run.run();
      EXPECT_TRUE(res.verified_mirror) << "n=" << n << " r=" << r;
      // ABS is silent for long stretches, so the adversary keeps everyone
      // alive far beyond the generic bound; >= r * (log n / log(2r)) is
      // the conservative pigeonhole floor.
      const double floor_slots =
          r * (std::log2(n) / std::log2(2.0 * r));
      EXPECT_GE(static_cast<double>(res.slots_per_station), floor_slots)
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(Mirror, AgainstSyncBinaryLeToo) {
  // The lower bound is algorithm-agnostic: the same adversary stalls the
  // synchronous binary search (which is only correct at R = 1 anyway).
  MirrorRun run(sync_le_factory(), 32, 2, 2);
  const MirrorResult res = run.run();
  EXPECT_TRUE(res.verified_mirror);
  EXPECT_GE(res.phases, 1u);
}

TEST(Mirror, SurvivorsShrinkNoFasterThanPigeonhole) {
  MirrorRun run(abs_factory(), 64, 4, 4);
  const MirrorResult res = run.run();
  EXPECT_TRUE(res.verified_mirror);
  // |C_{h+1}| >= |C_h| / (2r) each phase; with p phases at least
  // n / (2r)^p stations remain at the end of the committed prefix, so the
  // committed phase count ensures survivors >= 2.
  EXPECT_GE(res.survivors.size(), 2u);
}

TEST(Mirror, DeterministicConstruction) {
  auto once = [] {
    MirrorRun run(abs_factory(), 32, 3, 4);
    const MirrorResult r = run.run();
    return std::tuple(r.phases, r.total_time, r.survivors);
  };
  EXPECT_EQ(once(), once());
}

TEST(Mirror, MoreAsynchronyForcesMoreTime) {
  // With larger r the adversary wastes more channel time per phase;
  // total forced time should not shrink when r grows.
  MirrorRun run2(abs_factory(), 64, 2, 8);
  MirrorRun run8(abs_factory(), 64, 8, 8);
  const auto res2 = run2.run();
  const auto res8 = run8.run();
  EXPECT_TRUE(res2.verified_mirror);
  EXPECT_TRUE(res8.verified_mirror);
  EXPECT_GT(res8.total_time, 0);
  EXPECT_GT(res2.total_time, 0);
}

}  // namespace
}  // namespace asyncmac
