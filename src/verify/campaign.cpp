#include "verify/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "analysis/registry.h"
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

/// Packet conservation, between two independently kept records: every
/// station's queue must hold the packets and cost the Collector counts as
/// queued there, and the run must have injected exactly the packets it
/// delivered plus those still queued.
trace::CheckResult check_conservation(const sim::Engine& engine) {
  const metrics::RunStats& stats = engine.stats();
  std::uint64_t queued = 0;
  for (StationId id = 1; id <= engine.n(); ++id) {
    const metrics::StationStats& st = stats.station[id - 1];
    if (engine.queue_size(id) != st.queued ||
        engine.queue_cost(id) != st.queued_cost) {
      std::ostringstream os;
      os << "station " << id << " queues " << engine.queue_size(id)
         << " packets of cost " << engine.queue_cost(id)
         << " but the collector counts " << st.queued << " of cost "
         << st.queued_cost;
      return {false, os.str()};
    }
    queued += engine.queue_size(id);
  }
  if (stats.injected_packets != stats.delivered_packets + queued) {
    std::ostringstream os;
    os << "packets not conserved: " << stats.injected_packets
       << " injected, " << stats.delivered_packets << " delivered, "
       << queued << " queued";
    return {false, os.str()};
  }
  return {};
}

/// Differential oracle for the engine's dense path, and the seed-use
/// check, on the untraced scenario (a traced run never takes the dense
/// loop).
///
/// Dense path, dense-eligible scenarios only (sim::Engine::dense): one
/// engine runs until half the horizon and then until the horizon on the
/// dense loop; a twin runs the same two stops with a never-true
/// predicate, which forces the general loop. Their save_state bytes must
/// match at both stops, and the dense engine must conserve packets.
///
/// Seed use: the engine seed reaches only the stations' RNGs, so a
/// protocol that declares it never draws from them
/// (analysis::protocol_draws_rng) must give the scenario engine's stats
/// and channel stats at engine seed + 1 — its snapshot still differs by
/// the saved RNG states. For a dense-eligible scenario that run is a
/// dense one too.
trace::CheckResult check_dense_equivalence(const Scenario& s,
                                           const sim::Engine& scenario) {
  Scenario plain = s;
  plain.record_trace = false;
  const Tick horizon = s.horizon_units * kTicksPerUnit;

  auto dense = analysis::build_engine(plain);
  if (dense->dense()) {
    auto general = analysis::build_engine(plain);
    for (const Tick stop : {horizon / 2, horizon}) {
      dense->run(sim::until(stop));
      sim::StopCondition forced = sim::until(stop);
      forced.predicate = [](const sim::Engine&) { return false; };
      general->run(forced);
      snapshot::Writer dense_bytes;
      snapshot::Writer general_bytes;
      dense->save_state(dense_bytes);
      general->save_state(general_bytes);
      if (dense_bytes.buffer() != general_bytes.buffer()) {
        std::ostringstream os;
        os << "dense path diverged from the general path at t=" << stop
           << ": state snapshots differ (" << dense_bytes.buffer().size()
           << " vs " << general_bytes.buffer().size() << " bytes)";
        return {false, os.str()};
      }
      if (auto r = check_conservation(*dense); !r) return r;
    }
  }

  if (analysis::protocol_draws_rng(s.protocol)) return {};
  auto reseeded = analysis::build_engine(plain, plain.seed + 1);
  reseeded->run(sim::until(horizon));
  if (reseeded->stats() == scenario.stats() &&
      reseeded->channel_stats() == scenario.channel_stats())
    return {};
  return {false, s.protocol +
                     " declares no seed use, yet its run at engine seed + 1 "
                     "diverged from the scenario engine's stats"};
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
    if (auto r = check_conservation(*engine); !r) return r;

    if (s.protocol == "ca-arrow") {
      // The paper's CA-ARRoW guarantees: no transmission ever collides,
      // and successful bursts rotate in cyclic station order.
      const auto txs = trace::transmissions_of(slots);
      if (auto r = trace::check_no_overlaps(txs); !r) return r;
      if (auto r = trace::check_cyclic_turn_order(txs, s.n); !r) return r;
    }

    if (auto r = check_dense_equivalence(s, *engine); !r) return r;

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
