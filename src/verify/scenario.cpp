#include "verify/scenario.h"

#include <sstream>

#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "util/check.h"
#include "util/rng.h"

namespace asyncmac::verify {

namespace {

// SplitMix64 finalizer: decorrelates (campaign_seed, index) pairs into
// case seeds. Matches util::Rng's seeding primitive by construction but
// is reproduced here so a case seed is a documented, stable function.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::string Scenario::describe() const {
  std::ostringstream os;
  os << "protocol=" << protocol << " n=" << n << " r=" << bound_r
     << " policy=" << slot_policy << " horizon=" << horizon_units
     << " seed=" << seed << " injector=" << injector.kind
     << "(rho=" << injector.rho.str()
     << " burst=" << injector.burst_ticks / kTicksPerUnit << "u";
  if (injector.kind == "saturating" || injector.kind == "bursty")
    os << " pattern=" << injector.pattern;
  if (injector.kind == "bursty")
    os << " period=" << injector.period_ticks / kTicksPerUnit << "u";
  if (injector.kind == "drain-chasing")
    os << " chase=" << injector.drain_a << "<->" << injector.drain_b;
  os << ")";
  if (restrained.enabled())
    os << " restrained=" << restrained.k
       << (restrained.jam ? ":jam" : ":reject");
  if (energy.enabled)
    os << " energy=" << energy.cost_transmit << ":" << energy.cost_listen
       << ":" << energy.cost_sleep;
  if (case_seed != 0) os << " case-seed=" << case_seed;
  return os.str();
}

std::unique_ptr<sim::Engine> run_scenario(const Scenario& s) {
  AM_REQUIRE(s.horizon_units > 0, "scenario horizon must be positive");
  AM_REQUIRE(s.record_trace && s.keep_channel_history,
             "verify runs record the trace and keep the channel history");
  auto engine = analysis::build_engine(s);
  engine->run(sim::until(s.horizon_units * kTicksPerUnit));
  return engine;
}

const std::vector<std::string>& default_protocol_pool() {
  // Core algorithms + every queue-driven baseline (the SST one-shots —
  // abs, sync-binary-le, listen — expect scripted participation, not a
  // packet workload, so the generator leaves them to their own tests).
  static const std::vector<std::string> kPool = {
      "ao-arrow", "ca-arrow", "adaptive-abs",  "rrw",
      "mbtf",     "aloha",    "beb",           "csma-lbt",
      "silence-tdma", "tree-resolution"};
  return kPool;
}

Scenario scenario_from_seed(std::uint64_t case_seed) {
  return scenario_from_seed(case_seed, default_protocol_pool());
}

Scenario scenario_from_seed(std::uint64_t case_seed,
                            const std::vector<std::string>& pool) {
  AM_REQUIRE(!pool.empty(), "protocol pool must not be empty");
  util::Rng root(case_seed);
  // One split per decision group: adding a draw to one group never shifts
  // the draws of another, so generated corpora stay stable under
  // generator evolution within a group.
  util::Rng proto_rng = root.split();
  util::Rng topo_rng = root.split();
  util::Rng slots_rng = root.split();
  util::Rng inject_rng = root.split();
  util::Rng seed_rng = root.split();
  // Appended after the original five groups: earlier-split generators
  // are unaffected, so pre-channel corpora regenerate identically.
  util::Rng channel_rng = root.split();

  Scenario s;
  s.case_seed = case_seed;
  s.protocol = pool[proto_rng.below(pool.size())];

  s.n = static_cast<std::uint32_t>(topo_rng.range(1, 6));
  s.bound_r = static_cast<std::uint32_t>(topo_rng.range(1, 4));
  s.horizon_units = topo_rng.range(30, 200);
  // A protocol the registry declares correct only on synchronous slots
  // is pinned to R = 1 (every named slot policy then degenerates to
  // 1-unit slots): materials() refuses it on asynchronous ones.
  if (analysis::protocol_needs_synchronous_slots(s.protocol)) s.bound_r = 1;

  const auto policies = adversary::slot_policy_names();
  s.slot_policy = policies[slots_rng.below(policies.size())];

  s.seed = seed_rng.next();
  if (s.seed == 0) s.seed = 1;

  adversary::InjectorSpec& inj = s.injector;
  const std::uint64_t kind_draw = inject_rng.below(100);
  if (kind_draw < 50) {
    inj.kind = "saturating";
  } else if (kind_draw < 70) {
    inj.kind = "bursty";
  } else if (kind_draw < 85 || s.n < 2) {
    inj.kind = "maxqueue";
  } else {
    inj.kind = "drain-chasing";
  }
  inj.rho = util::Ratio(inject_rng.range(5, 100), 100);
  inj.burst_ticks = inject_rng.range(1, 32) * kTicksPerUnit;
  static const char* kPatterns[] = {"roundrobin", "single", "random"};
  inj.pattern = kPatterns[inject_rng.below(3)];
  inj.single_target = static_cast<StationId>(inject_rng.range(1, s.n));
  inj.period_ticks = inject_rng.range(4, 64) * kTicksPerUnit;
  if (s.n >= 2) {
    inj.drain_a = static_cast<StationId>(inject_rng.range(1, s.n - 1));
    inj.drain_b = static_cast<StationId>(
        inj.drain_a + inject_rng.range(1, s.n - inj.drain_a));
  }
  inj.seed = inject_rng.next();
  // Gap stressor: reshape some bursty injectors into rare, widely-spaced
  // bursts (long silent gaps at a low refill rate). This is the workload
  // that exercises the engine's injection skip-ahead — thousands of slot
  // ends between polls — so the fuzzer's differential oracle covers it.
  // Appended at the end of the inject group: the splittable RNG keeps all
  // earlier draws (and every other group) unperturbed.
  if (inj.kind == "bursty" && inject_rng.below(100) < 40) {
    inj.period_ticks =
        static_cast<Tick>(inject_rng.range(200, 1000)) * kTicksPerUnit;
    inj.rho = util::Ratio(inject_rng.range(1, 10), 100);
  }
  // Channel-variant group: a minority of cases run on the k-restrained
  // channel (both jam and reject semantics) and/or with energy metering
  // on, so the campaign's differential oracles sweep those code paths.
  // Energy is observation-only, so enabling it must never change a
  // verdict — the fuzzer doubles as a regression guard for that.
  if (channel_rng.below(100) < 30) {
    s.restrained.k = static_cast<std::uint32_t>(channel_rng.range(1, s.n));
    s.restrained.jam = channel_rng.below(2) == 0;
  }
  if (channel_rng.below(100) < 30) {
    s.energy.enabled = true;
    s.energy.cost_transmit =
        static_cast<std::uint64_t>(channel_rng.range(1, 8));
    s.energy.cost_listen = static_cast<std::uint64_t>(channel_rng.range(0, 4));
    s.energy.cost_sleep = static_cast<std::uint64_t>(channel_rng.range(0, 2));
  }
  return s;
}

ScenarioGen::ScenarioGen(std::uint64_t campaign_seed,
                         std::vector<std::string> pool)
    : campaign_seed_(campaign_seed), pool_(std::move(pool)) {
  if (pool_.empty()) pool_ = default_protocol_pool();
}

std::uint64_t ScenarioGen::case_seed(std::uint64_t index) const {
  std::uint64_t seed = mix64(mix64(campaign_seed_) ^ index);
  if (seed == 0) seed = 1;  // 0 is the "handwritten scenario" sentinel
  return seed;
}

Scenario ScenarioGen::generate(std::uint64_t index) const {
  return scenario_from_seed(case_seed(index), pool_);
}

}  // namespace asyncmac::verify
