// Tests for the analysis module: finite-horizon stability classification
// and the empirical Max-Stable-Rate estimator (the paper's figure of
// merit for the PT problem).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "analysis/msr.h"
#include "analysis/stability.h"
#include "baselines/aloha.h"
#include "baselines/rrw.h"
#include "core/ao_arrow.h"
#include "core/ca_arrow.h"
#include "sim_helpers.h"

namespace asyncmac {
namespace {

using adversary::SaturatingInjector;
using adversary::TargetPattern;
using analysis::MsrConfig;
using analysis::StabilityConfig;
using analysis::Verdict;

constexpr Tick U = kTicksPerUnit;

template <typename P>
analysis::RateEngineFactory factory(std::uint32_t n, std::uint32_t R,
                                    const std::string& policy) {
  return [=](util::Ratio rho, std::uint64_t seed) {
    sim::EngineConfig cfg;
    cfg.n = n;
    cfg.bound_r = R;
    cfg.seed = seed;
    return std::make_unique<sim::Engine>(
        cfg, asyncmac::testing::make_protocols<P>(n),
        asyncmac::testing::make_slot_policy(policy, n, R, seed),
        std::make_unique<SaturatingInjector>(
            rho, 8 * U, TargetPattern::kRoundRobin, 1, seed + 1));
  };
}

StabilityConfig quick_probe() {
  StabilityConfig c;
  c.horizon = 100000 * U;
  c.chunks = 8;
  c.ceiling = 10000 * U;
  return c;
}

TEST(Stability, VerdictNames) {
  EXPECT_STREQ(analysis::to_string(Verdict::kStable), "stable");
  EXPECT_STREQ(analysis::to_string(Verdict::kGrowing), "growing");
  EXPECT_STREQ(analysis::to_string(Verdict::kSaturated), "saturated");
}

TEST(Stability, CaArrowModerateLoadIsStable) {
  auto f = factory<core::CaArrowProtocol>(4, 2, "perstation");
  const auto report = analysis::probe_stability(
      [&] { return f(util::Ratio(1, 2), 1); }, quick_probe());
  EXPECT_EQ(report.verdict, Verdict::kStable);
  EXPECT_GT(report.delivered, 1000u);
  EXPECT_EQ(report.samples.size(), 8u);
}

TEST(Stability, OverloadIsCaughtAsGrowingOrSaturated) {
  // Declared rate 0.9 on 2-unit slots for half the stations: true demand
  // above 1 — must not be classified stable.
  auto f = [](util::Ratio, std::uint64_t seed) {
    sim::EngineConfig cfg;
    cfg.n = 2;
    cfg.bound_r = 2;
    cfg.seed = seed;
    // Overload: rate 1 of unit-cost packets but all slots are 2 units.
    return std::make_unique<sim::Engine>(
        cfg, asyncmac::testing::make_protocols<core::CaArrowProtocol>(2),
        asyncmac::testing::make_slot_policy("max", 2, 2, seed),
        std::make_unique<SaturatingInjector>(
            util::Ratio::one(), 8 * U, TargetPattern::kRoundRobin));
  };
  const auto report = analysis::probe_stability(
      [&] { return f(util::Ratio::one(), 1); }, quick_probe());
  EXPECT_NE(report.verdict, Verdict::kStable);
}

TEST(Stability, RejectsDegenerateConfig) {
  StabilityConfig bad;
  bad.chunks = 2;
  auto f = factory<core::CaArrowProtocol>(2, 1, "sync");
  EXPECT_THROW(analysis::probe_stability(
                   [&] { return f(util::Ratio(1, 2), 1); }, bad),
               std::invalid_argument);
}

TEST(Msr, CaArrowSustainsHighRates) {
  MsrConfig cfg;
  cfg.probe = quick_probe();
  const auto res =
      analysis::estimate_msr(factory<core::CaArrowProtocol>(3, 2,
                                                            "perstation"),
                             cfg);
  EXPECT_GE(res.msr_pct, 85) << "CA-ARRoW should be stable almost to 1";
  EXPECT_GT(res.probes, 0);
}

TEST(Msr, AoArrowSustainsHighRates) {
  MsrConfig cfg;
  cfg.probe = quick_probe();
  const auto res = analysis::estimate_msr(
      factory<core::AoArrowProtocol>(3, 2, "perstation"), cfg);
  EXPECT_GE(res.msr_pct, 80);
}

TEST(Msr, SlottedAlohaCollapsesEarly) {
  MsrConfig cfg;
  cfg.probe = quick_probe();
  cfg.seeds = 3;
  const auto res = analysis::estimate_msr(
      factory<baselines::SlottedAlohaProtocol>(4, 1, "sync"), cfg);
  EXPECT_LT(res.msr_pct, 60) << "ALOHA must not sustain high rates";
  EXPECT_GT(res.msr_pct, 5) << "but it does sustain light load";
}

TEST(Msr, StableAtMatchesEstimate) {
  MsrConfig cfg;
  cfg.probe = quick_probe();
  auto f = factory<core::CaArrowProtocol>(2, 2, "perstation");
  EXPECT_TRUE(analysis::stable_at(f, util::Ratio(1, 2), cfg));
}

// Scripted votes: seed s (1..5) is stable at rho percent p iff p <=
// kScriptedThreshold[s]. A stable vote's engine gets no traffic; an
// unstable one's is overloaded (rate 1 on 2-unit slots) and saturates
// within the probe.
constexpr int kScriptedThreshold[] = {0, 60, 20, 45, 80, 10};

bool scripted_stable(int pct, std::uint64_t seed) {
  return pct <= kScriptedThreshold[seed];
}

TEST(Msr, VoteStopsAtADecidedMajority) {
  std::atomic<int> built{0};
  const analysis::RateEngineFactory f = [&built](util::Ratio rho,
                                                 std::uint64_t seed) {
    ++built;
    sim::EngineConfig cfg;
    cfg.n = 2;
    cfg.bound_r = 2;
    cfg.seed = seed;
    std::unique_ptr<sim::InjectionPolicy> injection;
    if (!scripted_stable(static_cast<int>(rho.num * 100 / rho.den), seed))
      injection = std::make_unique<SaturatingInjector>(
          util::Ratio::one(), 8 * U, TargetPattern::kRoundRobin);
    return std::make_unique<sim::Engine>(
        cfg, asyncmac::testing::make_protocols<core::CaArrowProtocol>(2),
        asyncmac::testing::make_slot_policy("max", 2, 2, seed),
        std::move(injection));
  };
  StabilityConfig probe;
  probe.horizon = 400 * U;
  probe.chunks = 4;
  probe.ceiling = 20 * U;

  for (int seeds = 1; seeds <= 5; ++seeds) {
    // The full vote over every seed, and the shortest prefix of the seeds
    // (cast in order) whose votes decide it.
    auto full_vote = [seeds](int pct) {
      int stable = 0;
      for (int k = 1; k <= seeds; ++k)
        stable += scripted_stable(pct, static_cast<std::uint64_t>(k)) ? 1 : 0;
      return 2 * stable > seeds;
    };
    auto votes_needed = [seeds](int pct) {
      int stable = 0;
      for (int k = 1; k <= seeds; ++k) {
        stable += scripted_stable(pct, static_cast<std::uint64_t>(k)) ? 1 : 0;
        if (2 * stable > seeds || 2 * (stable + seeds - k) <= seeds) return k;
      }
      return seeds;
    };
    // The binary search over the full vote, counting decisive prefixes.
    int expect_msr = 0;
    int expect_probes = 0;
    int rates = 0;
    auto probe_at = [&](int pct) {
      expect_probes += votes_needed(pct);
      ++rates;
      return full_vote(pct);
    };
    if (probe_at(1)) {
      if (probe_at(99)) {
        expect_msr = 99;
      } else {
        int lo = 1, hi = 99;
        while (hi - lo > 1) {
          const int mid = (lo + hi) / 2;
          (probe_at(mid) ? lo : hi) = mid;
        }
        expect_msr = lo;
      }
    }

    MsrConfig cfg;
    cfg.probe = probe;
    cfg.seeds = seeds;
    const std::string what = "seeds=" + std::to_string(seeds);
    analysis::MsrResult at_jobs[2];
    for (const unsigned jobs : {1u, 4u}) {
      cfg.jobs = jobs;
      built = 0;
      const auto res = analysis::estimate_msr(f, cfg);
      EXPECT_EQ(res.msr_pct, expect_msr) << what << " jobs=" << jobs;
      EXPECT_EQ(res.probes, expect_probes) << what << " jobs=" << jobs;
      EXPECT_EQ(built.load(), res.probes) << what << " jobs=" << jobs;
      at_jobs[jobs == 1 ? 0 : 1] = res;
    }
    EXPECT_EQ(at_jobs[0].msr_pct, at_jobs[1].msr_pct) << what;
    EXPECT_EQ(at_jobs[0].probes, at_jobs[1].probes) << what;
    // Every vote of two or more seeds stops before its last seed at some
    // rate of this script.
    if (seeds >= 2) {
      EXPECT_LT(at_jobs[0].probes, rates * seeds) << what;
    }

    for (const int pct : {5, 15, 30, 50, 70, 90, expect_msr, expect_msr + 1}) {
      if (pct < 1 || pct > 99) continue;
      built = 0;
      EXPECT_EQ(analysis::stable_at(f, util::Ratio(pct, 100), cfg),
                full_vote(pct))
          << what << " pct=" << pct;
      EXPECT_EQ(built.load(), votes_needed(pct)) << what << " pct=" << pct;
    }
  }
}

TEST(Msr, RejectsBadRange) {
  MsrConfig cfg;
  cfg.lo_pct = 0;
  auto f = factory<core::CaArrowProtocol>(2, 1, "sync");
  EXPECT_THROW(analysis::estimate_msr(f, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace asyncmac
