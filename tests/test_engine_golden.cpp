// The "old vs new event loop" identity suite for the PR-4 engine
// overhaul, pinned as data plus targeted behavioral tests:
//
//  * every corpus case in engine_golden_cases() must reproduce its
//    committed tests/golden/engine/<name>.trace byte-for-byte — the
//    first seven goldens were generated with the pre-overhaul loop
//    (std::priority_queue scheduler, poll-every-event injections), so a
//    byte match proves the indexed heap, the injection skip-ahead and
//    the ledger fast paths preserve semantics exactly;
//  * each case, rerun with a ledger prune every 16 events, must save the
//    committed tests/golden/engine/<name>.state bytes (the snapshot
//    layout of the ledger window, its archive and stats, and of every
//    registry protocol's state, as data), and a fresh engine must load
//    those bytes, save them back and run on in step with the writer;
//  * an always-poll wrapper (hint = now) forces the pre-hint polling
//    cadence on the same injectors and must also match byte-for-byte,
//    isolating the skip-ahead as a pure no-op;
//  * simultaneous slot ends are processed in ascending station order
//    (the heap's tie-break, identical to the old pair ordering);
//  * CostBucket::next_afford_time is exact at the boundary;
//  * EngineConfig::prune_interval is validated;
//  * verify::ScenarioGen emits bursty-with-long-gap scenarios so the
//    fuzzing campaign exercises skip-ahead.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "baselines/listen.h"
#include "engine_golden_cases.h"
#include "sim/event_heap.h"
#include "sim_helpers.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using asyncmac::testing::EngineGoldenCase;
using asyncmac::testing::engine_golden_cases;
using asyncmac::testing::run_engine_golden_case;

constexpr Tick U = kTicksPerUnit;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(EngineGolden, CorpusIsByteIdenticalToPreOverhaulEngine) {
  const auto cases = engine_golden_cases();
  ASSERT_FALSE(cases.empty());
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string golden =
        read_file(std::string(ASYNCMAC_ENGINE_GOLDEN_DIR) + "/" + c.name +
                  ".trace");
    ASSERT_FALSE(golden.empty()) << "missing golden file for " << c.name;
    EXPECT_EQ(run_engine_golden_case(c), golden);
  }
}

// The snapshot layout as data: every corpus case, pruned every 16 events
// with the channel history kept, must save the committed bytes at its
// horizon — the ledger window's live entries, finalized cursor, archive
// and stats after dozens of prunes (and most cases' compactions).
TEST(EngineGolden, PrunedRunSnapshotBytesMatchTheCorpus) {
  for (const auto& c : engine_golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::string golden =
        read_file(std::string(ASYNCMAC_ENGINE_GOLDEN_DIR) + "/" + c.name +
                  ".state");
    ASSERT_FALSE(golden.empty()) << "missing golden state for " << c.name;
    EXPECT_TRUE(asyncmac::testing::run_engine_golden_state(c) == golden);
  }
}

std::vector<std::uint8_t> saved(const sim::Engine& engine) {
  snapshot::Writer w;
  engine.save_state(w);
  return w.take();
}

// The load half against the committed bytes: a fresh engine of each case
// loads its .state to the end, saves the same bytes back, and then runs
// on in step with the engine that wrote them, so the state load_state
// rebuilds (the scheduler keys, the window's next due end and live-end
// heap) matches what the run had built.
TEST(EngineGolden, CommittedStateLoadsResavesAndRunsOn) {
  for (const auto& c : engine_golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::string golden =
        read_file(std::string(ASYNCMAC_ENGINE_GOLDEN_DIR) + "/" + c.name +
                  ".state");
    ASSERT_FALSE(golden.empty()) << "missing golden state for " << c.name;
    const std::vector<std::uint8_t> bytes(golden.begin(), golden.end());
    const auto loaded = asyncmac::testing::golden_state_engine(c);
    snapshot::Reader r(bytes);
    loaded->load_state(r);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_TRUE(saved(*loaded) == bytes);

    const auto writer = asyncmac::testing::golden_state_engine(c);
    writer->run(sim::until(c.horizon_units * kTicksPerUnit));
    const sim::StopCondition later =
        sim::until((c.horizon_units + 50) * kTicksPerUnit);
    writer->run(later);
    loaded->run(later);
    EXPECT_TRUE(saved(*loaded) == saved(*writer));
  }
}

// Forces the pre-hint polling cadence: delegates poll() but reports
// hint = now, so the engine polls at every event exactly as the old loop
// did. Identical output over the whole corpus shows the skipped polls
// were pure no-ops (the skip-ahead contract, checked end to end).
class AlwaysPollWrapper final : public sim::InjectionPolicy {
 public:
  explicit AlwaysPollWrapper(std::unique_ptr<sim::InjectionPolicy> inner)
      : inner_(std::move(inner)) {}

  void poll(Tick now, const sim::EngineView& view,
            std::vector<sim::Injection>& out) override {
    inner_->poll(now, view, out);
  }
  // Intentionally not forwarding to inner_: `now` is the contract's
  // documented "never skip" default.
  Tick next_arrival_hint(Tick now) override { return now; }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::InjectionPolicy> inner_;
};

std::string run_case_always_polling(const EngineGoldenCase& c) {
  sim::EngineConfig cfg;
  cfg.n = c.n;
  cfg.bound_r = c.bound_r;
  cfg.seed = c.seed;
  cfg.record_trace = true;
  cfg.record_deliveries = true;
  cfg.restrained = c.restrained;
  cfg.energy = c.energy;
  sim::Engine engine(
      cfg, analysis::make_protocols(c.protocol, c.n),
      adversary::make_slot_policy(c.slot_policy, c.n, c.bound_r, c.seed),
      c.no_injector ? nullptr
                    : std::make_unique<AlwaysPollWrapper>(
                          adversary::make_injector(c.injector)));
  engine.run(sim::until(c.horizon_units * kTicksPerUnit));
  std::string out =
      trace::serialize_trace({c.n, c.bound_r}, engine.trace().slots());
  out += metrics::to_json(engine.stats(), &engine.channel_stats());
  out += "\n";
  return out;
}

TEST(EngineGolden, SkipAheadMatchesAlwaysPollingByteForByte) {
  for (const auto& c : engine_golden_cases()) {
    if (c.no_injector) continue;
    SCOPED_TRACE(c.name);
    EXPECT_EQ(run_engine_golden_case(c), run_case_always_polling(c));
  }
}

TEST(EngineGolden, SimultaneousSlotEndsProcessInAscendingStationOrder) {
  // Uniform 1-unit slots: all n stations end every slot at the same tick,
  // so every event is a tie and the trace must interleave stations
  // 1..n in ascending order within each tick group.
  constexpr std::uint32_t n = 5;
  sim::EngineConfig cfg;
  cfg.n = n;
  cfg.bound_r = 1;
  cfg.record_trace = true;
  sim::Engine e(cfg,
                asyncmac::testing::make_protocols<baselines::ListenProtocol>(n),
                std::make_unique<adversary::UniformSlotPolicy>(U), nullptr);
  sim::StopCondition stop;
  stop.max_total_slots = 10 * n;
  e.run(stop);
  const auto& slots = e.trace().slots();
  ASSERT_EQ(slots.size(), 10u * n);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].end, static_cast<Tick>(i / n + 1) * U);
    EXPECT_EQ(slots[i].station, static_cast<StationId>(i % n + 1));
  }
}

TEST(EngineGolden, SlotEventHeapOrdersByTimeThenStation) {
  sim::SlotEventHeap h(4);
  // All keys start at kTickInfinity; ties break toward the smallest id.
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.top_time(), kTickInfinity);

  h.update(3, 5);
  EXPECT_EQ(h.top_station(), 3u);
  EXPECT_EQ(h.top_time(), 5);

  h.update(1, 5);  // equal key: station 1 precedes station 3
  EXPECT_EQ(h.top_station(), 1u);

  h.update(1, 7);  // re-key past station 3
  EXPECT_EQ(h.top_station(), 3u);

  h.update(3, 6);  // re-key in place, still the minimum
  EXPECT_EQ(h.top_station(), 3u);
  EXPECT_EQ(h.top_time(), 6);

  h.update(3, 9);  // now station 1 at 7 leads (2 and 4 are at infinity)
  EXPECT_EQ(h.top_station(), 1u);
  EXPECT_EQ(h.top_time(), 7);
  EXPECT_EQ(h.time_of(3), 9);
  EXPECT_EQ(h.time_of(2), kTickInfinity);
}

TEST(EngineGolden, NextAffordTimeIsExactAtTheBoundary) {
  adversary::CostBucket b(util::Ratio(1, 3), 10 * U);
  b.advance(0);
  b.spend(10 * U);  // drain the full burst
  // Needs 4U more: at rate 1/3 that takes exactly 12U ticks.
  const Tick t = b.next_afford_time(4 * U);
  EXPECT_EQ(t, 12 * U);
  adversary::CostBucket before = b;
  before.advance(t - 1);
  EXPECT_FALSE(before.can_afford(4 * U));
  adversary::CostBucket at = b;
  at.advance(t);
  EXPECT_TRUE(at.can_afford(4 * U));

  // Already affordable: the hint is "now" (the last advance time).
  EXPECT_EQ(at.next_afford_time(4 * U), t);
  // Above the burstiness cap: never affordable.
  EXPECT_EQ(b.next_afford_time(11 * U), kTickInfinity);
  // Zero rate: an empty bucket never refills.
  adversary::CostBucket frozen(util::Ratio(0, 1), 2 * U);
  frozen.advance(0);
  frozen.spend(2 * U);
  EXPECT_EQ(frozen.next_afford_time(U), kTickInfinity);
}

TEST(EngineGolden, PruneIntervalMustBePositive) {
  sim::EngineConfig cfg;
  cfg.n = 1;
  cfg.bound_r = 1;
  cfg.prune_interval = 0;
  EXPECT_THROW(
      sim::Engine(cfg,
                  asyncmac::testing::make_protocols<baselines::ListenProtocol>(
                      1),
                  std::make_unique<adversary::UniformSlotPolicy>(U), nullptr),
      std::invalid_argument);
}

TEST(EngineGolden, ScenarioGenEmitsBurstyLongGapScenarios) {
  // The gap stressor reshapes ~40% of bursty draws into periods of
  // 200..1000 units; over a few hundred cases the campaign must see some.
  verify::ScenarioGen gen(123);
  int long_gaps = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const verify::Scenario s = gen.generate(i);
    if (s.injector.kind == "bursty" &&
        s.injector.period_ticks >= 200 * U)
      ++long_gaps;
  }
  EXPECT_GT(long_gaps, 0);
}

}  // namespace
}  // namespace asyncmac
