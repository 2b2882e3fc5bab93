// asyncmac/analysis/msr.h
//
// Empirical Max Stable Rate estimation. MSR is the paper's figure of
// merit for the PT problem: the largest injection rate rho at which the
// protocol keeps queues bounded. The theorems say "any rho < 1" for the
// ARRoW protocols and "no rho > 0" / "no rho = 1" for the impossibility
// rows; the estimator turns those statements into measured numbers by
// binary-searching rho (in integer percent) over stability probes.
//
// The search assumes monotonicity (stable at rho implies stable below),
// which holds for the leaky-bucket workloads used here; randomized
// protocols (ALOHA, BEB) get a majority vote over seeds to tame variance.
// A vote stops as soon as its majority is decided: seeds are cast in
// order, in rounds of the fewest votes that could still decide it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/run_spec.h"
#include "analysis/stability.h"
#include "util/ratio.h"

namespace asyncmac::analysis {

/// Builds a fresh engine for a probe at injection rate rho (percent) and
/// seed. The factory owns all other configuration (protocol, n, R, slot
/// policy, burstiness, workload shape).
using RateEngineFactory = std::function<std::unique_ptr<sim::Engine>(
    util::Ratio rho, std::uint64_t seed)>;

/// The probes of `spec`: a probe at rho is the spec with injector.rho =
/// rho, built with the vote seed as engine seed (the slot policy keeps
/// drawing from spec.seed, so every probe shares one schedule).
RateEngineFactory rate_factory(const RunSpec& spec);

struct MsrConfig {
  StabilityConfig probe;      ///< per-probe settings
  int lo_pct = 1;             ///< search range, inclusive (percent)
  int hi_pct = 99;
  int seeds = 1;              ///< majority vote across seeds per rho
  std::uint64_t base_seed = 1;
  /// Worker threads for each round of a per-rho seed vote (0 =
  /// hardware_concurrency, 1 = serial). The binary search over rho and
  /// the rounds stay sequential; with jobs != 1 the factory must be
  /// callable concurrently (it only builds engines, so value-capturing
  /// factories are safe). No result depends on it.
  unsigned jobs = 1;
};

struct MsrResult {
  int msr_pct = 0;  ///< highest percent classified stable (0 = none)
  int probes = 0;   ///< seed votes cast (stability probes executed)
};

/// Binary-search the highest stable rho (percent).
MsrResult estimate_msr(const RateEngineFactory& factory,
                       const MsrConfig& config = {});

/// Single-rate convenience: majority-vote stability at one rho, the
/// verdict estimate_msr's probe at that rho reaches.
bool stable_at(const RateEngineFactory& factory, util::Ratio rho,
               const MsrConfig& config = {});

}  // namespace asyncmac::analysis
