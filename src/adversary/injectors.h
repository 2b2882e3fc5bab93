// asyncmac/adversary/injectors.h
//
// Leaky-bucket packet-injection adversaries (Def. 1). All of them share an
// exact integer token bucket: tokens (measured in cost ticks) accrue at
// rate rho and are capped at the burstiness b, which is precisely the
// class of injection patterns the paper's stability theorems quantify
// over — any window of length t receives at most rho*t + b cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/injection.h"
#include "util/ratio.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::adversary {

/// Exact token bucket over integer ticks. Never uses floating point.
class CostBucket {
 public:
  /// rho in [0, 1] typically; burst_cost in ticks (>= largest packet cost
  /// for any packet to ever be injectable).
  CostBucket(util::Ratio rho, Tick burst_cost);

  /// Accrue tokens up to `now` (monotone).
  void advance(Tick now);
  bool can_afford(Tick cost) const;
  /// Requires can_afford(cost).
  void spend(Tick cost);
  /// Current whole-tick token count (floor).
  Tick tokens() const;
  util::Ratio rate() const { return rho_; }
  Tick burst() const { return burst_; }

  /// Earliest time t >= the last advance() such that advance(t) would make
  /// `cost` affordable; kTickInfinity when it never becomes affordable
  /// (cost above the burstiness cap, or a zero rate). Exact — the basis of
  /// the injectors' next_arrival_hint implementations.
  Tick next_afford_time(Tick cost) const;

  /// Checkpoint/resume: the mutable balance and accrual clock only; the
  /// rate and burstiness are construction parameters the caller rebuilds.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  util::Ratio rho_;
  Tick burst_;
  __int128 tokens_scaled_;  // tokens * rho_.den
  Tick last_ = 0;
};

/// How an injector chooses the next victim station.
enum class TargetPattern : std::uint8_t {
  kRoundRobin,  ///< cycle 1..n
  kSingle,      ///< always the same station
  kRandom,      ///< uniform random station (seeded)
};

/// Returns the Def.-1 cost of a packet bound for `station`: the station's
/// fixed slot length when the slot policy exposes one, otherwise one time
/// unit (a declared lower bound; the BucketValidator cross-checks realized
/// costs for variable policies).
Tick packet_cost_for(const sim::EngineView& view, StationId station);

/// Injects as aggressively as the bucket permits at every poll — the
/// bucket-saturating adversary. With kRoundRobin this is the canonical
/// uniform-pressure workload of the stability benchmarks.
class SaturatingInjector final : public sim::InjectionPolicy {
 public:
  SaturatingInjector(util::Ratio rho, Tick burst_cost, TargetPattern pattern,
                     StationId single_target = 1, std::uint64_t seed = 1);

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override;
  Tick next_arrival_hint(Tick now) override;
  std::string name() const override;

  const std::vector<sim::Injection>& log() const { return log_; }
  void set_keep_log(bool keep) { keep_log_ = keep; }
  Tick injected_cost() const { return injected_cost_; }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  StationId pick(const sim::EngineView& view);

  CostBucket bucket_;
  TargetPattern pattern_;
  StationId single_target_;
  StationId rr_next_ = 1;
  util::Rng rng_;
  std::vector<sim::Injection> log_;
  bool keep_log_ = false;
  Tick injected_cost_ = 0;
  /// Cost whose affordability ended the last poll; 0 means "no skipping"
  /// (a poll could mutate state — e.g. the random pattern's RNG — even
  /// without injecting).
  Tick hint_cost_ = 0;
};

/// Lets tokens pile up and dumps everything affordable every
/// `period_ticks` — maximal burstiness at a fixed long-run rate.
class BurstyInjector final : public sim::InjectionPolicy {
 public:
  BurstyInjector(util::Ratio rho, Tick burst_cost, Tick period_ticks,
                 TargetPattern pattern, StationId single_target = 1,
                 std::uint64_t seed = 1);

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override;
  /// Exactly next_burst_: any poll at or past it mutates the burst clock
  /// (regardless of bucket balance), and any poll before it is a no-op.
  Tick next_arrival_hint(Tick now) override;
  std::string name() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  StationId pick(const sim::EngineView& view);

  CostBucket bucket_;
  Tick period_;
  Tick next_burst_ = 0;
  TargetPattern pattern_;
  StationId single_target_;
  StationId rr_next_ = 1;
  util::Rng rng_;
};

/// The Theorem-5 adversary: runs the bucket at rate rho (use 1 for the
/// impossibility experiment) and always targets a station that is NOT the
/// one that most recently completed a successful transmission, forcing the
/// protocol to hand the channel over infinitely often; each hand-over
/// wastes time under asynchrony, so no protocol is stable at rho = 1.
class DrainChasingInjector final : public sim::InjectionPolicy {
 public:
  /// Chases between stations `a` and `b` (distinct).
  DrainChasingInjector(util::Ratio rho, Tick burst_cost, StationId a,
                       StationId b);

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override;
  Tick next_arrival_hint(Tick now) override;
  std::string name() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  CostBucket bucket_;
  StationId a_, b_;
  /// min(cost(a), cost(b)) — the adaptive target choice can flip between
  /// polls, so the hint must be when the *cheaper* victim's packet becomes
  /// affordable. Cached on first poll (fixed_slot_length is constant).
  Tick min_cost_ = 0;
};

/// Adaptive worst-case-fairness adversary: every packet goes to the
/// station whose queue already holds the most cost, concentrating
/// pressure where the backlog is worst. Universal stability (Theorem 3 /
/// Theorem 6) quantifies over adaptive adversaries too, so the ARRoW
/// protocols must hold up against it.
class MaxQueueInjector final : public sim::InjectionPolicy {
 public:
  MaxQueueInjector(util::Ratio rho, Tick burst_cost);

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override;
  Tick next_arrival_hint(Tick now) override;
  std::string name() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  CostBucket bucket_;
  /// Cheapest per-station cost — the adaptive max-queue target can change
  /// between polls. Cached on first poll (fixed_slot_length is constant).
  Tick min_cost_ = 0;
};

/// Declarative description of an injection adversary — the common
/// currency of the CLI, the experiment grids and the fuzzing campaign's
/// scenario generator (verify::ScenarioGen), all of which need to build
/// injectors from plain data that can be serialized into repro files.
struct InjectorSpec {
  /// One of injector_kinds(): saturating | bursty | maxqueue |
  /// drain-chasing.
  std::string kind = "saturating";
  util::Ratio rho{1, 2};
  Tick burst_ticks = 8 * kTicksPerUnit;
  /// saturating/bursty only: roundrobin | single | random.
  std::string pattern = "roundrobin";
  StationId single_target = 1;
  Tick period_ticks = 0;  ///< bursty only: dump period (> 0)
  StationId drain_a = 1, drain_b = 2;  ///< drain-chasing only (distinct)
  std::uint64_t seed = 1;

  bool operator==(const InjectorSpec&) const = default;
};

/// Build the injector an InjectorSpec describes; throws
/// std::invalid_argument on an unknown kind/pattern or inconsistent
/// parameters (e.g. drain-chasing with drain_a == drain_b).
std::unique_ptr<sim::InjectionPolicy> make_injector(const InjectorSpec& spec);

/// The kinds make_injector accepts.
std::vector<std::string> injector_kinds();

/// Seed use, declared beside the factory: true when the injector draws
/// from spec.seed — the random target pattern of the saturating and
/// bursty kinds. The round-robin and single patterns, maxqueue and
/// drain-chasing are fixed functions of the bucket and the engine view.
/// Only analysis::seed_invariant combines this with the other
/// components' declarations.
bool injector_draws_seed(const InjectorSpec& spec);

/// Parse a pattern name (roundrobin | single | random); throws
/// std::invalid_argument on anything else.
TargetPattern parse_target_pattern(const std::string& name);

/// Replays an explicit list of injections (tests, Theorem-4 driver).
class ScriptedInjector final : public sim::InjectionPolicy {
 public:
  /// `script` must be sorted by time.
  explicit ScriptedInjector(std::vector<sim::Injection> script);

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override;
  /// The next scripted time (kTickInfinity once exhausted) — polls before
  /// it cannot emit and touch no state.
  Tick next_arrival_hint(Tick now) override;
  std::string name() const override { return "scripted"; }

  /// The script itself is construction data; only the cursor is state.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  std::vector<sim::Injection> script_;
  std::size_t next_ = 0;
};

}  // namespace asyncmac::adversary
