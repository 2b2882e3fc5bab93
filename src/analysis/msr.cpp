#include "analysis/msr.h"

#include <algorithm>
#include <vector>

#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace asyncmac::analysis {

namespace {

bool stable_probe(const RateEngineFactory& factory, util::Ratio rho,
                  const MsrConfig& config, int* probes) {
  // The seeds vote in order, in rounds: each round casts, on the pool, the
  // fewest next votes that could still decide the majority (with 3 seeds:
  // two, then the third only on a split). The votes cast are a prefix of
  // the full vote and decide it, so the verdict is the full vote's.
  const int stable_needed = config.seeds / 2 + 1;
  const int unstable_needed = config.seeds - stable_needed + 1;
  int votes = 0;
  int stable_votes = 0;
  while (stable_votes < stable_needed &&
         votes - stable_votes < unstable_needed) {
    const int round = std::min(stable_needed - stable_votes,
                               unstable_needed - (votes - stable_votes));
    std::vector<char> stable(static_cast<std::size_t>(round), 0);
    const std::uint64_t first = config.base_seed +
                                static_cast<std::uint64_t>(votes);
    util::parallel_for(
        config.jobs, stable.size(), [&](std::size_t k) {
          const std::uint64_t seed = first + k;
          const auto report = probe_stability(
              [&] { return factory(rho, seed); }, config.probe);
          stable[k] = report.verdict == Verdict::kStable ? 1 : 0;
        });
    votes += round;
    stable_votes += static_cast<int>(
        std::count(stable.begin(), stable.end(), char{1}));
  }
  if (probes) *probes += votes;
  const bool verdict = stable_votes >= stable_needed;
  static auto& probe_count =
      telemetry::Registry::global().counter("analysis.msr_probes");
  probe_count.add(static_cast<std::uint64_t>(votes));
  telemetry::emit("msr.probe",
                  {{"rho_num", static_cast<std::int64_t>(rho.num)},
                   {"rho_den", static_cast<std::int64_t>(rho.den)},
                   {"stable_votes", static_cast<std::int64_t>(stable_votes)},
                   {"votes", static_cast<std::int64_t>(votes)},
                   {"seeds", static_cast<std::int64_t>(config.seeds)},
                   {"stable", verdict}});
  return verdict;
}

}  // namespace

RateEngineFactory rate_factory(const RunSpec& spec) {
  return [spec](util::Ratio rho, std::uint64_t seed) {
    RunSpec probe = spec;
    probe.injector.rho = rho;
    return build_engine(probe, seed);
  };
}

bool stable_at(const RateEngineFactory& factory, util::Ratio rho,
               const MsrConfig& config) {
  return stable_probe(factory, rho, config, nullptr);
}

MsrResult estimate_msr(const RateEngineFactory& factory,
                       const MsrConfig& config) {
  AM_REQUIRE(config.lo_pct >= 1 && config.hi_pct <= 99 &&
                 config.lo_pct <= config.hi_pct,
             "search range must lie in [1, 99]");
  AM_REQUIRE(config.seeds >= 1, "need at least one seed");

  MsrResult result;

  // If even the lowest rate is unstable, MSR is (empirically) zero.
  if (!stable_probe(factory, util::Ratio(config.lo_pct, 100), config,
                    &result.probes)) {
    result.msr_pct = 0;
    return result;
  }
  // If the highest rate is stable, report it directly.
  if (stable_probe(factory, util::Ratio(config.hi_pct, 100), config,
                   &result.probes)) {
    result.msr_pct = config.hi_pct;
    return result;
  }
  // Invariant: stable at lo, unstable at hi.
  int lo = config.lo_pct, hi = config.hi_pct;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (stable_probe(factory, util::Ratio(mid, 100), config,
                     &result.probes)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.msr_pct = lo;
  return result;
}

}  // namespace asyncmac::analysis
