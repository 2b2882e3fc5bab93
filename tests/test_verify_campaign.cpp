// Campaign-level properties of the fuzzing subsystem: generator
// determinism and seed purity, a clean sweep over the shipped protocol
// pool, byte-identical results for every jobs value (verdicts, summary
// text AND repro JSON), greedy shrinking of synthetic violations down to
// the acceptance bar (<= 3 stations), and repro round-trip/replay.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "escaped_bytes.h"
#include "sim/engine.h"
#include "verify/campaign.h"
#include "verify/repro.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using verify::CampaignConfig;
using verify::CampaignResult;
using verify::Scenario;
using verify::ScenarioGen;

Scenario small_clean_scenario() {
  Scenario s;
  s.protocol = "ca-arrow";
  s.n = 3;
  s.bound_r = 2;
  s.slot_policy = "perstation";
  s.horizon_units = 60;
  s.seed = 11;
  s.injector.kind = "saturating";
  s.injector.rho = util::Ratio(1, 2);
  return s;
}

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "pattern not found: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(VerifyCampaign, ScenarioGenIsDeterministicAndSeedPure) {
  const ScenarioGen a(42);
  const ScenarioGen b(42);
  for (std::uint64_t i = 0; i < 24; ++i) {
    EXPECT_EQ(a.case_seed(i), b.case_seed(i));
    const Scenario sa = a.generate(i);
    EXPECT_EQ(sa, b.generate(i));
    // A case replays from its seed alone — no campaign context needed.
    EXPECT_EQ(sa, verify::scenario_from_seed(a.case_seed(i)));
  }
  EXPECT_NE(a.case_seed(0), ScenarioGen(43).case_seed(0));
  EXPECT_NE(a.case_seed(0), a.case_seed(1));
}

TEST(VerifyCampaign, SynchronousOnlyProtocolsArePinnedToR1) {
  // tree-resolution's correctness argument assumes globally simultaneous
  // feedback; the generator must never schedule it with R > 1 (this is
  // the regression the 1000-case campaign originally caught).
  int seen = 0;
  const ScenarioGen gen(7);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Scenario s = gen.generate(i);
    if (s.protocol == "tree-resolution") {
      ++seen;
      EXPECT_EQ(s.bound_r, 1u) << "index " << i;
    }
  }
  EXPECT_GT(seen, 0) << "pool never produced tree-resolution";
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Scenario s =
        verify::scenario_from_seed(seed, {"tree-resolution"});
    EXPECT_EQ(s.bound_r, 1u) << "seed " << seed;
  }
}

// The generator pins R = 1 from the registry's declaration alone: over a
// few hundred case seeds a protocol draws some R > 1 exactly when the
// registry does not declare that it needs synchronous slots.
TEST(VerifyCampaign, GeneratorPinsExactlyTheDeclaredProtocols) {
  for (const std::string& name : analysis::protocol_names()) {
    bool asynchronous = false;
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
      asynchronous |= verify::scenario_from_seed(seed, {name}).bound_r > 1;
    EXPECT_EQ(asynchronous,
              !analysis::protocol_needs_synchronous_slots(name))
        << name;
  }
}

TEST(VerifyCampaign, CleanSweepOverShippedProtocols) {
  CampaignConfig config;
  config.seed = 3;
  config.cases = 192;  // three chunks
  config.jobs = 2;
  const CampaignResult result = verify::run_campaign(config);
  EXPECT_EQ(result.cases_run, 192u);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_FALSE(result.shrunk_valid);
  for (const auto& v : result.verdicts) {
    EXPECT_TRUE(v.ok) << "case " << v.index << " seed " << v.case_seed
                      << ": " << v.violation;
  }
  EXPECT_NE(verify::summarize(result).find("violations: 0"),
            std::string::npos);
}

TEST(VerifyCampaign, ResultsAreByteIdenticalAcrossJobs) {
  // A synthetic, deterministic violation on ~a quarter of the cases: the
  // shipped stack (correctly) refuses to fail on its own, so the
  // determinism contract is exercised with failures present via the
  // extra-check hook.
  CampaignConfig config;
  config.seed = 9;
  config.cases = 130;  // crosses a chunk boundary
  config.extra_check = [](const Scenario& s, const sim::Engine&) {
    if (s.case_seed % 4 == 0)
      return trace::CheckResult{false, "synthetic: case_seed % 4 == 0"};
    return trace::CheckResult{};
  };

  config.jobs = 1;
  const CampaignResult r1 = verify::run_campaign(config);
  ASSERT_FALSE(r1.failures.empty());
  ASSERT_TRUE(r1.shrunk_valid);

  for (unsigned jobs : {2u, 5u}) {
    config.jobs = jobs;
    const CampaignResult rn = verify::run_campaign(config);
    EXPECT_EQ(verify::summarize(r1), verify::summarize(rn)) << "jobs "
                                                            << jobs;
    ASSERT_EQ(r1.verdicts.size(), rn.verdicts.size());
    for (std::size_t i = 0; i < r1.verdicts.size(); ++i) {
      EXPECT_EQ(r1.verdicts[i].index, rn.verdicts[i].index);
      EXPECT_EQ(r1.verdicts[i].case_seed, rn.verdicts[i].case_seed);
      EXPECT_EQ(r1.verdicts[i].ok, rn.verdicts[i].ok);
      EXPECT_EQ(r1.verdicts[i].violation, rn.verdicts[i].violation);
    }
    EXPECT_EQ(r1.shrunk, rn.shrunk);
    EXPECT_EQ(r1.shrunk_violation, rn.shrunk_violation);
    // The repro file the CLI would write is part of the contract too.
    EXPECT_EQ(
        verify::to_json(verify::make_repro(r1.shrunk, r1.shrunk_violation)),
        verify::to_json(verify::make_repro(rn.shrunk, rn.shrunk_violation)));
  }
}

TEST(VerifyCampaign, ShrinkerReachesTheStationAcceptanceBar) {
  // A violation that any transmission at all triggers: the shrinker must
  // push a 6-station case to <= 3 stations (the acceptance criterion)
  // while the scenario keeps failing.
  Scenario s;
  s.protocol = "aloha";
  s.n = 6;
  s.bound_r = 3;
  s.slot_policy = "cyclic";
  s.horizon_units = 120;
  s.seed = 5;
  s.injector.kind = "bursty";
  s.injector.rho = util::Ratio(3, 4);
  s.injector.burst_ticks = 16 * kTicksPerUnit;
  s.injector.period_ticks = 8 * kTicksPerUnit;
  const verify::CaseCheck any_transmission =
      [](const Scenario&, const sim::Engine& e) {
        if (e.ledger().stats().transmissions > 0)
          return trace::CheckResult{false, "synthetic: saw a transmission"};
        return trace::CheckResult{};
      };
  ASSERT_FALSE(verify::run_case(s, any_transmission).ok);

  std::string violation;
  const Scenario shrunk =
      verify::shrink_counterexample(s, any_transmission, &violation);
  EXPECT_LE(shrunk.n, 3u);
  EXPECT_LE(shrunk.horizon_units, s.horizon_units);
  EXPECT_EQ(violation, "synthetic: saw a transmission");
  EXPECT_FALSE(verify::run_case(shrunk, any_transmission).ok);

  // End to end through the campaign: the shrunk counterexample lands in
  // the result ready for repro emission.
  CampaignConfig config;
  config.seed = 21;
  config.cases = 8;
  config.jobs = 1;
  config.extra_check = any_transmission;
  const CampaignResult result = verify::run_campaign(config);
  ASSERT_FALSE(result.failures.empty());
  ASSERT_TRUE(result.shrunk_valid);
  EXPECT_LE(result.shrunk.n, 3u);
  EXPECT_FALSE(result.shrunk_violation.empty());
}

TEST(VerifyCampaign, ReproRoundTripsAndReplaysClean) {
  const Scenario s = small_clean_scenario();
  const verify::Repro repro = verify::make_repro(s, "");
  ASSERT_FALSE(repro.trace_text.empty());

  const std::string json = verify::to_json(repro);
  const verify::Repro parsed = verify::parse_repro_json(json);
  EXPECT_EQ(parsed, repro);
  EXPECT_EQ(verify::to_json(parsed), json);

  const verify::ReplayOutcome outcome = verify::replay_repro(parsed);
  EXPECT_TRUE(outcome.case_result.ok) << outcome.case_result.what;
  EXPECT_TRUE(outcome.trace_matches);
  EXPECT_TRUE(outcome.reproduced);

  // Full-width u64 seeds (> INT64_MAX) must survive the JSON layer —
  // real case seeds use all 64 bits.
  Scenario wide = s;
  wide.seed = 0xDEAD'BEEF'DEAD'BEEFULL;
  wide.case_seed = 0xFFFF'FFFF'FFFF'FFFEULL;
  const verify::Repro wide_repro = verify::make_repro(wide, "");
  EXPECT_EQ(verify::parse_repro_json(verify::to_json(wide_repro)),
            wide_repro);

  // A repro claiming a violation the current build does not exhibit must
  // NOT count as reproduced (that is how a fixed bug reads).
  const verify::Repro stale = verify::make_repro(s, "claimed violation");
  const verify::ReplayOutcome fixed = verify::replay_repro(stale);
  EXPECT_TRUE(fixed.trace_matches);
  EXPECT_FALSE(fixed.reproduced);
}

TEST(VerifyCampaign, ScenarioFieldsOutsideTheReproSchemaAreRefused) {
  // A Scenario is a RunSpec, but the repro JSON carries only the run's
  // identity: a scenario changing a recording or pacing field has no
  // repro, and verify never runs a case without its trace and history.
  const verify::Repro repro = verify::make_repro(small_clean_scenario(), "");
  for (int field = 0; field < 3; ++field) {
    verify::Repro changed = repro;
    if (field == 0) changed.scenario.record_deliveries = true;
    if (field == 1) changed.scenario.prune_interval = 7;
    if (field == 2) changed.scenario.has_injector = false;
    EXPECT_THROW(verify::to_json(changed), std::invalid_argument) << field;
  }
  Scenario untraced = small_clean_scenario();
  untraced.record_trace = false;
  EXPECT_THROW(verify::run_scenario(untraced), std::invalid_argument);
  EXPECT_FALSE(verify::run_case(untraced).ok);
}

TEST(VerifyCampaign, ReproParserRejectsMalformedInput) {
  const std::string good = verify::to_json(verify::make_repro(
      small_clean_scenario(), ""));
  const std::vector<std::string> bad = {
      good.substr(0, good.size() / 2),
      good + "junk",
      replace_first(good, "asyncmac-fuzz-repro", "something-else"),
      replace_first(good, "\"version\": 1", "\"version\": 2"),
      replace_first(good, "\"version\": 1",
                    "\"version\": 99999999999999999999999"),
      replace_first(good, "\"n\":", "\"m\":"),
      replace_first(good, "\"rho_den\": 2", "\"rho_den\": -2"),
      "{}",
      "[1]",
      "{\"format\": \"a\\qb\"}",
      "{\"format\": \"x\", \"format\": \"x\"}",
      "",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW(verify::parse_repro_json(text), std::invalid_argument)
        << "accepted: " << text.substr(0, 80);
  }
}

TEST(VerifyCampaign, ReproEscapesEveryByteValue) {
  const verify::Repro repro =
      verify::make_repro(small_clean_scenario(), every_byte_value());
  const std::string json = verify::to_json(repro);
  EXPECT_NE(json.find("\"violation\": \"" + kEveryByteValueEscaped + "\","),
            std::string::npos);
  EXPECT_EQ(verify::parse_repro_json(json), repro);
}

}  // namespace
}  // namespace asyncmac
