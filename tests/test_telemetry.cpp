// Tests for the run-telemetry layer: registry instruments, JSONL export
// and its reader/summarizer, and the determinism guarantee (telemetry on
// vs off changes no RunStats, trace, or fuzz verdict byte).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "snapshot/checkpoint.h"
#include "sim/engine.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "telemetry/summary.h"
#include "trace/renderer.h"
#include "util/json.h"
#include "verify/campaign.h"

namespace asyncmac {
namespace {

// Telemetry state is process-global; every test that flips the switch
// restores "disabled, no exporter, zeroed instruments" on the way out so
// tests stay order-independent.
class ScopedTelemetry {
 public:
  ScopedTelemetry() { telemetry::set_enabled(true); }
  ~ScopedTelemetry() {
    telemetry::uninstall_exporter();
    telemetry::set_enabled(false);
    telemetry::Registry::global().reset_values();
  }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------------ instruments

TEST(TelemetryRegistry, DisabledInstrumentsAreInert) {
  telemetry::set_enabled(false);
  auto& c = telemetry::Registry::global().counter("test.inert_counter");
  auto& g = telemetry::Registry::global().gauge("test.inert_gauge");
  auto& t = telemetry::Registry::global().timer("test.inert_timer");
  c.add(7);
  g.observe(42);
  t.record_ns(1000);
  { const telemetry::ScopeTimer scope(t); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(TelemetryRegistry, CounterAccumulatesWhenEnabled) {
  ScopedTelemetry on;
  auto& c = telemetry::Registry::global().counter("test.counter");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&c, &telemetry::Registry::global().counter("test.counter"));
}

TEST(TelemetryRegistry, GaugeKeepsHighWaterMark) {
  ScopedTelemetry on;
  auto& g = telemetry::Registry::global().gauge("test.gauge");
  g.observe(5);
  g.observe(3);
  g.observe(8);
  g.observe(8);
  EXPECT_EQ(g.value(), 8u);
}

TEST(TelemetryRegistry, TimerSummarizesSamples) {
  ScopedTelemetry on;
  auto& t = telemetry::Registry::global().timer("test.timer");
  for (std::int64_t ns : {100, 200, 300}) t.record_ns(ns);
  const util::Histogram h = t.snapshot();
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(TelemetryRegistry, SnapshotIsNameSortedAndComplete) {
  ScopedTelemetry on;
  telemetry::Registry::global().counter("test.snap_b").add(2);
  telemetry::Registry::global().counter("test.snap_a").add(1);
  telemetry::Registry::global().gauge("test.snap_gauge").observe(11);
  telemetry::Registry::global().timer("test.snap_timer").record_ns(50);

  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);

  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << name << " missing from snapshot";
    return 0;
  };
  EXPECT_EQ(counter_value("test.snap_a"), 1u);
  EXPECT_EQ(counter_value("test.snap_b"), 2u);

  bool timer_found = false;
  for (const auto& [n, stats] : snap.timers) {
    if (n != "test.snap_timer") continue;
    timer_found = true;
    EXPECT_EQ(stats.count, 1u);
    EXPECT_EQ(stats.min_ns, 50);
    EXPECT_EQ(stats.max_ns, 50);
  }
  EXPECT_TRUE(timer_found);
}

TEST(TelemetryRegistry, ResetValuesKeepsInstrumentAddresses) {
  ScopedTelemetry on;
  auto& c = telemetry::Registry::global().counter("test.reset_counter");
  c.add(3);
  telemetry::Registry::global().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &telemetry::Registry::global().counter("test.reset_counter"));
}

// ----------------------------------------------------------- JSONL export

TEST(TelemetryJsonl, RoundTripsThroughSummarizer) {
  ScopedTelemetry on;
  const std::string path = temp_path("telemetry_roundtrip.jsonl");
  telemetry::Registry::global().counter("test.rt_counter").add(21);
  {
    telemetry::JsonlExporter::Options opt;
    opt.path = path;
    opt.snapshot_period = std::chrono::milliseconds(0);  // no flusher
    auto exporter = std::make_unique<telemetry::JsonlExporter>(opt);
    ASSERT_TRUE(exporter->ok());
    telemetry::install_exporter(std::move(exporter));
    telemetry::emit("unit.event",
                    {{"i", std::int64_t{-3}},
                     {"u", std::uint64_t{7}},
                     {"d", 1.5},
                     {"flag", true},
                     {"s", std::string("quote\"newline\n")}});
    telemetry::emit("unit.event", {});
    telemetry::exporter()->snapshot_now("manual");
    telemetry::uninstall_exporter();  // appends the teardown snapshot
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const auto summary = telemetry::summarize_stream(in);
  EXPECT_EQ(summary.meta_lines, 1u);
  EXPECT_EQ(summary.events, 2u);
  EXPECT_EQ(summary.snapshots, 2u);
  EXPECT_EQ(summary.lines, 5u);
  EXPECT_EQ(summary.event_counts.at("unit.event"), 2u);

  bool found = false;
  for (const auto& [name, value] : summary.counters)
    if (name == "test.rt_counter") {
      found = true;
      EXPECT_EQ(value, 21u);
    }
  EXPECT_TRUE(found);

  const std::string rendered = telemetry::render_summary(summary);
  EXPECT_NE(rendered.find("test.rt_counter = 21"), std::string::npos);
  EXPECT_NE(rendered.find("unit.event x 2"), std::string::npos);

  std::remove(path.c_str());
}

TEST(TelemetryJsonl, EveryLineIsValidJsonWithKnownType) {
  ScopedTelemetry on;
  const std::string path = temp_path("telemetry_lines.jsonl");
  {
    telemetry::JsonlExporter::Options opt;
    opt.path = path;
    opt.snapshot_period = std::chrono::milliseconds(0);
    telemetry::install_exporter(
        std::make_unique<telemetry::JsonlExporter>(opt));
    telemetry::emit("lines.check", {{"n", std::int64_t{1}}});
    telemetry::uninstall_exporter();
  }
  std::istringstream in(read_file(path));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto v = util::parse_json(line);
    ASSERT_EQ(v.kind, util::JsonValue::Kind::kObject);
    const auto* type = v.find("type");
    ASSERT_NE(type, nullptr);
    EXPECT_TRUE(type->string == "meta" || type->string == "event" ||
                type->string == "snapshot")
        << "unknown type: " << type->string;
  }
  EXPECT_GE(lines, 3u);  // meta + event + teardown snapshot
  std::remove(path.c_str());
}

TEST(TelemetryJsonl, SummarizerRejectsCorruptStreams) {
  std::istringstream not_json("{\"type\":\"meta\"}\nnot json at all\n");
  EXPECT_THROW(telemetry::summarize_stream(not_json), std::invalid_argument);
  std::istringstream bad_type("{\"type\":\"mystery\"}\n");
  EXPECT_THROW(telemetry::summarize_stream(bad_type), std::invalid_argument);
  std::istringstream no_type("{\"hello\": 1}\n");
  EXPECT_THROW(telemetry::summarize_stream(no_type), std::invalid_argument);
  // Numbers a double cannot hold fail as typed errors, never abort.
  for (const std::string t_ms : {"1e999", "-1e999", "1.5e-999"}) {
    std::istringstream huge(R"({"type":"event","name":"x","t_ms":)" + t_ms +
                            R"(,"fields":{}})");
    EXPECT_THROW(telemetry::summarize_stream(huge), std::invalid_argument)
        << t_ms;
  }
}

TEST(TelemetryJsonl, EmitWithoutExporterIsHarmless) {
  ScopedTelemetry on;
  telemetry::uninstall_exporter();
  telemetry::emit("void.event", {{"x", std::int64_t{1}}});  // must not crash
  EXPECT_EQ(telemetry::exporter(), nullptr);
}

// ------------------------------------------------------------ determinism

struct RunArtifacts {
  std::string stats_json;
  std::string schedule;
};

RunArtifacts run_instrumented_sim(const std::string& protocol,
                                  std::uint64_t seed) {
  sim::EngineConfig cfg;
  cfg.n = 3;
  cfg.bound_r = 2;
  cfg.seed = seed;
  cfg.record_trace = true;
  sim::Engine engine(
      cfg, analysis::make_protocols(protocol, cfg.n),
      adversary::make_slot_policy("perstation", cfg.n, cfg.bound_r, seed),
      std::make_unique<adversary::SaturatingInjector>(
          util::Ratio(3, 5), 8 * kTicksPerUnit,
          adversary::TargetPattern::kRoundRobin, 1, seed + 1));
  engine.run(sim::until(2000 * kTicksPerUnit));

  RunArtifacts out;
  out.stats_json = metrics::to_json(engine.stats(), &engine.channel_stats());
  trace::RenderOptions r;
  r.to = 200 * kTicksPerUnit;
  out.schedule = trace::render_schedule(engine.trace().slots(), r);
  return out;
}

TEST(TelemetryDeterminism, RunStatsAndTraceAreByteIdentical) {
  telemetry::set_enabled(false);
  const RunArtifacts off_ao = run_instrumented_sim("ao-arrow", 11);
  const RunArtifacts off_ca = run_instrumented_sim("ca-arrow", 11);

  const std::string path = temp_path("telemetry_determinism.jsonl");
  RunArtifacts on_ao, on_ca;
  {
    ScopedTelemetry on;
    ASSERT_TRUE(telemetry::enable_to_file(path));
    on_ao = run_instrumented_sim("ao-arrow", 11);
    on_ca = run_instrumented_sim("ca-arrow", 11);
  }

  EXPECT_EQ(off_ao.stats_json, on_ao.stats_json);
  EXPECT_EQ(off_ao.schedule, on_ao.schedule);
  EXPECT_EQ(off_ca.stats_json, on_ca.stats_json);
  EXPECT_EQ(off_ca.schedule, on_ca.schedule);

  // And the run did actually record telemetry (the guarantee is "write
  // only", not "write nothing").
  std::ifstream in(path);
  const auto summary = telemetry::summarize_stream(in);
  bool saw_slots = false;
  for (const auto& [name, value] : summary.counters)
    if (name == "engine.slots") saw_slots = value > 0;
  EXPECT_TRUE(saw_slots);
  std::remove(path.c_str());
}

RunArtifacts run_memo_sim(std::uint64_t seed) {
  sim::EngineConfig cfg;
  cfg.n = 4;
  cfg.bound_r = 1;
  cfg.seed = seed;
  cfg.record_trace = true;
  // Synchronous slots: every station polls feedback over the same [s, t)
  // window, so each slot is one ledger memo miss followed by n - 1 hits —
  // the repeat-query memo's home turf.
  sim::Engine engine(
      cfg, analysis::make_protocols("ca-arrow", cfg.n),
      adversary::make_slot_policy("sync", cfg.n, cfg.bound_r, seed),
      std::make_unique<adversary::SaturatingInjector>(
          util::Ratio(1, 2), 8 * kTicksPerUnit,
          adversary::TargetPattern::kRoundRobin, 1, seed + 1));
  engine.run(sim::until(1000 * kTicksPerUnit));

  RunArtifacts out;
  out.stats_json = metrics::to_json(engine.stats(), &engine.channel_stats());
  trace::RenderOptions r;
  r.to = 200 * kTicksPerUnit;
  out.schedule = trace::render_schedule(engine.trace().slots(), r);
  return out;
}

// The ledger's repeat-query memo counters (channel.memo_hits /
// channel.memo_misses) are write-only like every other instrument:
// telemetry on vs off changes no result byte, and a synchronous run —
// where all n stations query the same slot window — records both.
TEST(TelemetryDeterminism, MemoCountersAreWriteOnlyAndRecorded) {
  telemetry::set_enabled(false);
  const RunArtifacts off = run_memo_sim(23);

  const std::string path = temp_path("telemetry_memo_determinism.jsonl");
  RunArtifacts on;
  {
    ScopedTelemetry enabled;
    ASSERT_TRUE(telemetry::enable_to_file(path));
    on = run_memo_sim(23);
  }

  EXPECT_EQ(off.stats_json, on.stats_json);
  EXPECT_EQ(off.schedule, on.schedule);

  std::ifstream in(path);
  const auto summary = telemetry::summarize_stream(in);
  std::uint64_t hits = 0, misses = 0, queries = 0;
  for (const auto& [name, value] : summary.counters) {
    if (name == "channel.memo_hits") hits = value;
    if (name == "channel.memo_misses") misses = value;
    if (name == "channel.feedback_queries") queries = value;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  // Every non-fast-path query is exactly one hit or one miss, never both.
  EXPECT_LE(hits + misses, queries);
  std::remove(path.c_str());
}

RunArtifacts run_instrumented_live(std::uint64_t seed) {
  snapshot::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 3;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.has_injector = true;
  spec.injector.kind = "saturating";
  spec.injector.rho = util::Ratio(3, 5);
  spec.injector.burst_ticks = 8 * kTicksPerUnit;
  spec.injector.pattern = "roundrobin";
  spec.injector.seed = seed + 1;
  spec.seed = seed;
  spec.horizon_units = 400;
  spec.record_trace = true;

  const live::VirtualRunReport rep = live::run_virtual(spec);
  RunArtifacts out;
  out.stats_json = metrics::to_json(rep.stats, &rep.channel);
  trace::RenderOptions r;
  r.to = 200 * kTicksPerUnit;
  out.schedule = trace::render_schedule(rep.trace, r);
  return out;
}

TEST(TelemetryDeterminism, LiveStackIsByteIdenticalAndInstrumented) {
  telemetry::set_enabled(false);
  const RunArtifacts off = run_instrumented_live(11);

  const std::string path = temp_path("telemetry_live_determinism.jsonl");
  RunArtifacts on;
  {
    ScopedTelemetry enabled;
    ASSERT_TRUE(telemetry::enable_to_file(path));
    on = run_instrumented_live(11);
  }

  // Telemetry on vs off changes no result byte: same stats JSON, same
  // rendered schedule (the live.* instruments are write-only).
  EXPECT_EQ(off.stats_json, on.stats_json);
  EXPECT_EQ(off.schedule, on.schedule);

  // And the live instruments did record: datagrams flowed both ways and
  // the virtual clock never fired a slot timer off its granted end.
  std::ifstream in(path);
  const auto summary = telemetry::summarize_stream(in);
  std::uint64_t rx = 0, tx = 0, late = 0, retransmits = 0;
  for (const auto& [name, value] : summary.counters) {
    if (name == "live.datagrams_rx") rx = value;
    if (name == "live.datagrams_tx") tx = value;
    if (name == "live.late_packets") late = value;
    if (name == "live.retransmits") retransmits = value;
  }
  EXPECT_GT(rx, 0u);
  EXPECT_GT(tx, 0u);
  EXPECT_EQ(late, 0u);         // zero knobs: nothing arrives stale
  EXPECT_EQ(retransmits, 0u);  // zero knobs: every reply arrives
  bool drift_seen = false;
  std::uint64_t drift = 1;
  for (const auto& [name, value] : summary.gauges)
    if (name == "live.slot_timer_drift") {
      drift_seen = true;
      drift = value;
    }
  EXPECT_TRUE(drift_seen);
  EXPECT_EQ(drift, 0u);  // virtual clock: arrivals exactly on the grant
  std::remove(path.c_str());
}

TEST(TelemetryDeterminism, FuzzVerdictsAreByteIdentical) {
  verify::CampaignConfig cfg;
  cfg.seed = 5;
  cfg.cases = 48;
  cfg.jobs = 2;

  telemetry::set_enabled(false);
  const std::string off = verify::summarize(verify::run_campaign(cfg));

  const std::string path = temp_path("telemetry_fuzz_determinism.jsonl");
  std::string on_summary;
  {
    ScopedTelemetry on;
    ASSERT_TRUE(telemetry::enable_to_file(path));
    on_summary = verify::summarize(verify::run_campaign(cfg));
  }
  EXPECT_EQ(off, on_summary);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- dense path

/// A run the engine takes densely (ca-arrow, one fixed slot length).
analysis::RunSpec dense_spec(const std::string& policy, std::uint32_t r) {
  analysis::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 4;
  spec.bound_r = r;
  spec.slot_policy = policy;
  spec.seed = 11;
  return spec;
}

TEST(TelemetryDense, CountsDenseSlots) {
  ScopedTelemetry on;
  const auto& dense_slots =
      telemetry::Registry::global().counter("engine.dense_slots");
  const auto& slots = telemetry::Registry::global().counter("engine.slots");

  // Every slot-end event of an untraced dense run, batched or not: 4
  // stations x 1500 unit slots (sync, R = 1), over two run() calls.
  auto dense = analysis::build_engine(dense_spec("sync", 1));
  ASSERT_TRUE(dense->dense());
  dense->run(sim::until(700 * kTicksPerUnit));
  dense->run(sim::until(1500 * kTicksPerUnit));
  EXPECT_EQ(dense_slots.value(), 4u * 1500u);
  EXPECT_EQ(slots.value(), dense_slots.value());

  // The general loop adds none: a perstation schedule at R = 2, a traced
  // dense() run and a stop with a predicate.
  auto perstation = analysis::build_engine(dense_spec("perstation", 2));
  EXPECT_FALSE(perstation->dense());
  perstation->run(sim::until(500 * kTicksPerUnit));
  analysis::RunSpec traced_spec = dense_spec("sync", 1);
  traced_spec.record_trace = true;
  auto traced = analysis::build_engine(traced_spec);
  EXPECT_TRUE(traced->dense());
  traced->run(sim::until(500 * kTicksPerUnit));
  sim::StopCondition with_predicate = sim::until(2000 * kTicksPerUnit);
  with_predicate.predicate = [](const sim::Engine&) { return false; };
  dense->run(with_predicate);
  EXPECT_EQ(dense_slots.value(), 4u * 1500u);
  EXPECT_GT(slots.value(), 4u * 1500u);
}

}  // namespace
}  // namespace asyncmac
