#include "verify/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "analysis/registry.h"
#include "sim/cohort_engine.h"
#include "snapshot/format.h"
#include "snapshot/io.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "verify/reference_channel.h"

namespace asyncmac::verify {

namespace {

// Fixed chunk size between time-budget checks. Independent of jobs so
// chunk boundaries — and with them every per-case verdict — never depend
// on the worker count.
constexpr std::uint64_t kChunk = 64;

// Candidate evaluations the shrinker may spend (each one is a whole
// simulated run).
constexpr int kShrinkBudget = 200;

// ---------------------------------------------------- campaign cursor

// CRC over what determines per-case verdicts: seed, case count and the
// protocol pool. jobs / budget / shrink only affect how far we get.
std::uint32_t campaign_fingerprint(const CampaignConfig& config,
                                   const std::vector<std::string>& pool) {
  snapshot::Writer w;
  w.u64(config.seed);
  w.u64(config.cases);
  for (const auto& p : pool) w.str(p);
  return snapshot::crc32(w.buffer().data(), w.buffer().size());
}

void write_cursor(const std::string& path, std::uint32_t fingerprint,
                  const std::vector<CaseVerdict>& verdicts) {
  snapshot::Writer w;
  w.u32(fingerprint);
  w.u64(verdicts.size());
  for (const CaseVerdict& v : verdicts) {
    w.u64(v.index);
    w.u64(v.case_seed);
    w.boolean(v.ok);
    w.str(v.violation);
  }
  snapshot::write_file(path, snapshot::FileKind::kCampaignCursor, w.buffer());
}

/// Load a cursor file (when one exists) and return the verdicts already
/// decided; throws SnapshotError(kMismatch) on a cursor from a different
/// campaign.
std::vector<CaseVerdict> load_cursor(const std::string& path,
                                     std::uint32_t fingerprint) {
  std::vector<CaseVerdict> verdicts;
  if (!std::filesystem::exists(path)) return verdicts;
  const auto payload =
      snapshot::read_file(path, snapshot::FileKind::kCampaignCursor);
  snapshot::Reader r(payload);
  if (r.u32() != fingerprint)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "campaign cursor " + path +
            " was written for a different campaign (seed/cases/pool)");
  // index, case_seed, ok, and the violation string's length prefix.
  const std::uint64_t count = r.count(8 + 8 + 1 + 8);
  verdicts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CaseVerdict v;
    v.index = r.u64();
    v.case_seed = r.u64();
    v.ok = r.boolean();
    v.violation = r.str();
    verdicts.push_back(std::move(v));
  }
  r.expect_end();
  return verdicts;
}

// Keep a shrunken scenario's injector well-formed after its station
// count dropped.
void clamp_to_stations(Scenario& s) {
  adversary::InjectorSpec& inj = s.injector;
  if (inj.single_target > s.n) inj.single_target = 1;
  if (inj.kind == "drain-chasing") {
    if (s.n < 2) {
      inj.kind = "saturating";
    } else if (inj.drain_a > s.n || inj.drain_b > s.n ||
               inj.drain_a == inj.drain_b) {
      inj.drain_a = 1;
      inj.drain_b = 2;
    }
  }
}

}  // namespace

namespace {

/// Differential oracle for the batched cohort engine, and the seed-use
/// check, on untraced runs of the scenario (a traced cohort never takes
/// its dense paths: the idle tier and the batched quiet run).
///
/// Seed use: the engine seed reaches only the stations' RNGs, so a
/// protocol that declares it never draws from them
/// (analysis::protocol_draws_rng) must give the scalar engine's stats and
/// channel stats at engine seed + 1 — its snapshot still differs by the
/// saved RNG states. A lockstep scenario's cohort lane 1 carries this
/// check; any other scenario gets a run of its own.
///
/// Cohort, lockstep scenarios only (sim::lockstep_eligible): lane 0 is
/// the scenario, lane 1 runs at engine seed + 1, lane 2 stops at half
/// the horizon, lane 3 varies the injector *parameters* (halved rho,
/// longer bursts — the shape analysis::run_grid batches grid rows with).
/// Lanes 0 and 3 must write their scalar twins' bytes, and lane 2, once
/// retired, the lane-0 twin's bytes at its stop.
trace::CheckResult check_cohort_equivalence(const Scenario& s,
                                            const sim::Engine& scalar) {
  Scenario plain = s;
  plain.record_trace = false;
  // Same protocol/policy/seed, different injector parameters: legal for
  // every injector kind (rho only shrinks, bursts only lengthen).
  Scenario varied = plain;
  varied.injector.rho =
      util::Ratio(varied.injector.rho.num, varied.injector.rho.den * 2);
  varied.injector.burst_ticks += 4 * kTicksPerUnit;
  const Tick horizon = s.horizon_units * kTicksPerUnit;

  auto check_seed_use = [&](const metrics::RunStats& stats,
                            const channel::LedgerStats& channel) {
    if (analysis::protocol_draws_rng(s.protocol) ||
        (stats == scalar.stats() && channel == scalar.channel_stats()))
      return trace::CheckResult{};
    return trace::CheckResult{
        false, s.protocol + " declares no seed use, yet its run at engine "
                            "seed + 1 diverged from the scalar engine's stats"};
  };

  std::vector<sim::LaneMaterials> lanes;
  lanes.push_back(analysis::materials(plain));
  lanes.push_back(analysis::materials(plain, plain.seed + 1));
  lanes.push_back(analysis::materials(plain));
  lanes.push_back(analysis::materials(varied));
  if (!sim::lockstep_eligible(lanes)) {
    if (analysis::protocol_draws_rng(s.protocol)) return {};
    auto reseeded = analysis::build_engine(plain, plain.seed + 1);
    reseeded->run(sim::until(horizon));
    return check_seed_use(reseeded->stats(), reseeded->channel_stats());
  }

  sim::CohortEngine cohort(std::move(lanes));
  std::vector<sim::StopCondition> stops(4, sim::until(horizon));
  stops[2] = sim::until(horizon / 2);
  cohort.run(stops);
  if (auto r = check_seed_use(cohort.stats(1), cohort.channel_stats(1)); !r)
    return r;

  // One scalar twin serves lane 2 (saved at its stop) and then lane 0.
  snapshot::Writer want[4];
  auto twin = analysis::build_engine(plain);
  twin->run(stops[2]);
  twin->save_state(want[2]);
  twin->run(stops[0]);
  twin->save_state(want[0]);
  auto varied_twin = analysis::build_engine(varied);
  varied_twin->run(stops[3]);
  varied_twin->save_state(want[3]);

  for (const std::size_t lane :
       {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    snapshot::Writer lane_bytes;
    cohort.save_lane_state(lane, lane_bytes);
    if (lane_bytes.buffer() != want[lane].buffer()) {
      std::ostringstream os;
      os << "cohort lane " << lane
         << (lane == 2 ? " (retired at half the horizon)" : "")
         << (lane == 3 ? " (param-varied injector)" : "")
         << " diverged from its scalar twin: state snapshots differ ("
         << lane_bytes.buffer().size() << " vs " << want[lane].buffer().size()
         << " bytes)";
      return {false, os.str()};
    }
  }
  return {};
}

trace::CheckResult run_case_impl(const Scenario& s, const CaseCheck& extra) {
  try {
    auto engine = run_scenario(s);
    const auto& slots = engine->trace().slots();

    const channel::RestrainedSpec restrained = engine->ledger().restrained();
    if (auto r = trace::check_slot_contiguity(slots); !r) return r;
    if (auto r = trace::check_feedback_consistency(slots, restrained); !r)
      return r;
    if (auto r = check_channel_oracle(slots, restrained); !r) return r;
    if (auto r = check_ledger_history(*engine); !r) return r;

    if (s.protocol == "ca-arrow") {
      // The paper's CA-ARRoW guarantees: no transmission ever collides,
      // and successful bursts rotate in cyclic station order.
      const auto txs = trace::transmissions_of(slots);
      if (auto r = trace::check_no_overlaps(txs); !r) return r;
      if (auto r = trace::check_cyclic_turn_order(txs, s.n); !r) return r;
    }

    if (auto r = check_cohort_equivalence(s, *engine); !r) return r;

    if (extra) {
      if (auto r = extra(s, *engine); !r) return r;
    }
    return {};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

}  // namespace

trace::CheckResult run_case(const Scenario& s, const CaseCheck& extra) {
  static auto& case_count =
      telemetry::Registry::global().counter("verify.cases");
  static auto& violation_count =
      telemetry::Registry::global().counter("verify.violations");
  static auto& case_timer =
      telemetry::Registry::global().timer("verify.case_ns");
  const telemetry::ScopeTimer scope(case_timer);
  case_count.add();
  auto r = run_case_impl(s, extra);
  if (!r.ok) violation_count.add();
  return r;
}

Scenario shrink_counterexample(Scenario s, const CaseCheck& extra,
                               std::string* violation_out) {
  int budget = kShrinkBudget;
  std::string violation;

  auto fails = [&](Scenario candidate) {
    if (budget <= 0) return false;
    --budget;
    static auto& candidates =
        telemetry::Registry::global().counter("verify.shrink_candidates");
    candidates.add();
    clamp_to_stations(candidate);
    const auto r = run_case(candidate, extra);
    if (r.ok) return false;
    violation = r.what;
    return true;
  };

  // Establish the baseline violation (the caller hands us a failing
  // scenario; if it stopped failing, return it unchanged).
  {
    const auto r = run_case(s, extra);
    if (r.ok) {
      if (violation_out) violation_out->clear();
      return s;
    }
    violation = r.what;
  }

  // Greedy passes until a whole pass makes no progress (or the candidate
  // budget runs dry). Order matters for minimality of the common case:
  // stations first (the acceptance bar), then time, then simplicity.
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;

    // Fewer stations.
    while (s.n > 1) {
      Scenario candidate = s;
      candidate.n = s.n - 1;
      if (!fails(candidate)) break;
      clamp_to_stations(candidate);
      s = candidate;
      improved = true;
    }

    // Shorter horizon (halving, then a linear trim).
    while (s.horizon_units > 1) {
      Scenario candidate = s;
      candidate.horizon_units = std::max<Tick>(1, s.horizon_units / 2);
      if (!fails(candidate)) break;
      s = candidate;
      improved = true;
    }
    while (s.horizon_units > 1) {
      Scenario candidate = s;
      candidate.horizon_units = s.horizon_units - 1;
      if (!fails(candidate)) break;
      s = candidate;
      improved = true;
    }

    // Simpler slot lengths: fully synchronous beats uniform-max beats
    // per-station constants beats anything time-varying.
    for (const char* simpler : {"sync", "max", "perstation"}) {
      if (s.slot_policy == simpler) break;  // already at least this simple
      Scenario candidate = s;
      candidate.slot_policy = simpler;
      if (fails(candidate)) {
        s = candidate;
        improved = true;
        break;
      }
    }

    // Simpler injection: the plain saturating round-robin adversary.
    if (s.injector.kind != "saturating") {
      Scenario candidate = s;
      candidate.injector.kind = "saturating";
      if (fails(candidate)) {
        s = candidate;
        improved = true;
      }
    }
    if (s.injector.pattern != "single") {
      Scenario candidate = s;
      candidate.injector.pattern = "single";
      if (fails(candidate)) {
        s = candidate;
        improved = true;
      }
    }

    // Simpler channel: an unrestrained medium beats a k-restrained one,
    // and energy metering is observation-only so dropping it should
    // never mask a violation — if it does, that is itself the bug.
    if (s.restrained.enabled()) {
      Scenario candidate = s;
      candidate.restrained.k = 0;
      if (fails(candidate)) {
        s = candidate;
        improved = true;
      }
    }
    if (s.energy.enabled) {
      Scenario candidate = s;
      candidate.energy.enabled = false;
      if (fails(candidate)) {
        s = candidate;
        improved = true;
      }
    }

    // Fewer injections: halve the burst allowance, then the rate.
    while (s.injector.burst_ticks > kTicksPerUnit) {
      Scenario candidate = s;
      candidate.injector.burst_ticks =
          std::max(kTicksPerUnit, s.injector.burst_ticks / 2);
      if (!fails(candidate)) break;
      s = candidate;
      improved = true;
    }
    while (s.injector.rho.num > 1) {
      Scenario candidate = s;
      candidate.injector.rho =
          util::Ratio(s.injector.rho.num / 2, s.injector.rho.den);
      if (!fails(candidate)) break;
      s = candidate;
      improved = true;
    }
  }

  if (violation_out) *violation_out = violation;
  return s;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  AM_REQUIRE(config.cases > 0, "campaign needs at least one case");
  const ScenarioGen gen(config.seed, config.protocols);

  CampaignResult result;
  result.cases_requested = config.cases;
  result.verdicts.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(config.cases, 1 << 20)));

  const bool checkpointing = !config.checkpoint_path.empty();
  std::uint32_t fingerprint = 0;
  if (checkpointing) {
    fingerprint = campaign_fingerprint(config, gen.pool());
    result.verdicts = load_cursor(config.checkpoint_path, fingerprint);
    result.cases_run = result.verdicts.size();
    // Failing scenarios regenerate from their case seeds (a campaign only
    // ever runs generated cases, so case_seed is never the handwritten-0
    // sentinel).
    for (const CaseVerdict& v : result.verdicts)
      if (!v.ok)
        result.failures.push_back(
            {v, scenario_from_seed(v.case_seed, gen.pool())});
  }

  telemetry::emit(
      "campaign.start",
      {{"cases", config.cases},
       {"jobs", static_cast<std::int64_t>(config.jobs)},
       {"time_budget_s",
        static_cast<std::int64_t>(config.time_budget_seconds)}});

  const auto started = std::chrono::steady_clock::now();
  auto budget_exceeded = [&] {
    if (config.time_budget_seconds <= 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - started;
    return elapsed >= std::chrono::seconds(config.time_budget_seconds);
  };

  for (std::uint64_t chunk_start = result.cases_run;
       chunk_start < config.cases; chunk_start += kChunk) {
    const std::uint64_t count =
        std::min<std::uint64_t>(kChunk, config.cases - chunk_start);
    std::vector<CaseVerdict> chunk(static_cast<std::size_t>(count));
    std::vector<Scenario> chunk_scenarios(static_cast<std::size_t>(count));
    util::parallel_for(
        config.jobs, static_cast<std::size_t>(count), [&](std::size_t i) {
          const std::uint64_t index = chunk_start + i;
          const Scenario s = gen.generate(index);
          const auto r = run_case(s, config.extra_check);
          chunk[i] = {index, s.case_seed, r.ok, r.what};
          if (!r.ok) chunk_scenarios[i] = s;
        });
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (!chunk[i].ok)
        result.failures.push_back({chunk[i], chunk_scenarios[i]});
      result.verdicts.push_back(std::move(chunk[i]));
    }
    result.cases_run += count;
    if (checkpointing)
      write_cursor(config.checkpoint_path, fingerprint, result.verdicts);
    if (config.stop_after_cases > 0 &&
        result.cases_run >= config.stop_after_cases &&
        result.cases_run < config.cases) {
      result.budget_exhausted = true;
      break;
    }
    if (telemetry::enabled()) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      telemetry::emit(
          "campaign.chunk",
          {{"cases_run", result.cases_run},
           {"violations",
            static_cast<std::uint64_t>(result.failures.size())},
           {"cases_per_sec",
            elapsed_s > 0.0 ? static_cast<double>(result.cases_run) /
                                  elapsed_s
                            : 0.0}});
    }
    if (budget_exceeded() && chunk_start + count < config.cases) {
      result.budget_exhausted = true;
      break;
    }
  }

  if (!result.failures.empty() && config.shrink) {
    result.shrunk = shrink_counterexample(result.failures.front().scenario,
                                          config.extra_check,
                                          &result.shrunk_violation);
    result.shrunk_valid = true;
  }
  telemetry::emit(
      "campaign.done",
      {{"cases_run", result.cases_run},
       {"violations", static_cast<std::uint64_t>(result.failures.size())},
       {"budget_exhausted", result.budget_exhausted}});
  return result;
}

std::string summarize(const CampaignResult& result) {
  std::ostringstream os;
  os << "cases: " << result.cases_run << "/" << result.cases_requested;
  if (result.budget_exhausted) os << " (time budget exhausted)";
  os << "\nviolations: " << result.failures.size() << "\n";
  for (const auto& f : result.failures)
    os << "case " << f.verdict.index << " seed " << f.verdict.case_seed
       << ": " << f.verdict.violation << "\n  " << f.scenario.describe()
       << "\n";
  if (result.shrunk_valid)
    os << "shrunk counterexample: " << result.shrunk.describe() << "\n"
       << "shrunk violation: " << result.shrunk_violation << "\n";
  return os.str();
}

}  // namespace asyncmac::verify
