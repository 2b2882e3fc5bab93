// The determinism contract of engine checkpoint/resume
// (snapshot/checkpoint.h): kill a run at an arbitrary slot, write a
// checkpoint file, rebuild from it in a fresh engine, continue — the
// trace and RunStats of the resumed run must be byte-identical to the
// uninterrupted one. Pinned across the full engine-golden corpus (every
// hot-loop path), generated fuzz scenarios, and a chained double-resume;
// plus RunSpec round-trip, AutoSaver retention and numbering, the
// newest-checkpoint rule, and the typed mismatch / corruption errors of
// the decode path.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "baselines/mbtf.h"
#include "baselines/sync_binary_le.h"
#include "baselines/tree_resolution.h"
#include "channel/ledger.h"
#include "core/abs.h"
#include "core/adaptive_abs.h"
#include "core/ao_arrow.h"
#include "core/ca_arrow.h"
#include "engine_golden_cases.h"
#include "metrics/collector.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/io.h"
#include "trace/serialize.h"
#include "verify/scenario.h"

namespace asyncmac {
namespace {

using snapshot::ErrorKind;
using snapshot::RunSpec;
using snapshot::SnapshotError;

/// Map a golden-corpus case to the declarative RunSpec the checkpoint
/// subsystem uses (the corpus runs with trace + delivery recording on).
RunSpec spec_from_golden(const testing::EngineGoldenCase& c) {
  RunSpec spec;
  spec.protocol = c.protocol;
  spec.n = c.n;
  spec.bound_r = c.bound_r;
  spec.slot_policy = c.slot_policy;
  spec.has_injector = !c.no_injector;
  spec.injector = c.injector;
  spec.seed = c.seed;
  spec.horizon_units = c.horizon_units;
  spec.record_trace = true;
  spec.record_deliveries = true;
  return spec;
}

/// Map a fuzz scenario the same way (verify engines record the trace and
/// keep the full channel history for the differential oracle).
RunSpec spec_from_scenario(const verify::Scenario& s) {
  RunSpec spec;
  spec.protocol = s.protocol;
  spec.n = s.n;
  spec.bound_r = s.bound_r;
  spec.slot_policy = s.slot_policy;
  spec.has_injector = true;
  spec.injector = s.injector;
  spec.seed = s.seed;
  spec.horizon_units = s.horizon_units;
  spec.record_trace = true;
  spec.keep_channel_history = true;
  spec.restrained = s.restrained;
  spec.energy = s.energy;
  return spec;
}

/// The full observable artifact of a run: serialized trace + stats JSON.
std::string render(const RunSpec& spec, const sim::Engine& engine) {
  std::string out = trace::serialize_trace({spec.n, spec.bound_r},
                                           engine.trace().slots());
  out += metrics::to_json(engine.stats(), &engine.channel_stats());
  return out;
}

std::string run_uninterrupted(const RunSpec& spec) {
  auto engine = snapshot::build_engine(spec);
  engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
  return render(spec, *engine);
}

/// Run to `kill_slots` processed events, checkpoint to disk, drop the
/// engine, resume from the file and finish the run.
std::string run_killed_and_resumed(const RunSpec& spec,
                                   std::uint64_t kill_slots,
                                   const std::string& path) {
  {
    auto engine = snapshot::build_engine(spec);
    // Cap by event count AND horizon so an oversized kill point degrades
    // into "checkpoint at the end" instead of running past the horizon.
    sim::StopCondition stop = sim::until(spec.horizon_units * kTicksPerUnit);
    stop.max_total_slots = kill_slots;
    engine->run(stop);
    snapshot::write_checkpoint(path, spec, *engine);
  }
  snapshot::ResumedRun run = snapshot::resume_checkpoint(path);
  EXPECT_EQ(run.spec, spec);
  run.engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
  return render(spec, *run.engine);
}

TEST(CheckpointEngine, GoldenCorpusResumesByteIdentical) {
  for (const auto& c : testing::engine_golden_cases()) {
    const RunSpec spec = spec_from_golden(c);
    const std::string control = run_uninterrupted(spec);
    ASSERT_EQ(run_uninterrupted(spec), control) << c.name;

    // Kill early and late — both segments must splice invisibly.
    for (const std::uint64_t kill : {std::uint64_t{17}, std::uint64_t{211}}) {
      const std::string path = "ckpt_engine_" + c.name + ".snap";
      EXPECT_EQ(run_killed_and_resumed(spec, kill, path), control)
          << c.name << " killed at " << kill;
    }
  }
}

TEST(CheckpointEngine, GoldenCorpusMatchesDirectConstruction) {
  // snapshot::build_engine goes through the same registries as the golden
  // generator; the artifacts must agree byte-for-byte.
  for (const auto& c : testing::engine_golden_cases()) {
    const RunSpec spec = spec_from_golden(c);
    EXPECT_EQ(run_uninterrupted(spec) + "\n",
              testing::run_engine_golden_case(c))
        << c.name;
  }
}

TEST(CheckpointEngine, GeneratedScenariosResumeByteIdentical) {
  // Fuzz-generated scenarios reach protocol/policy/injector combinations
  // the curated corpus does not; resume must hold there too.
  const verify::ScenarioGen gen(20260805);
  int tested = 0;
  for (std::uint64_t i = 0; tested < 3 && i < 32; ++i) {
    verify::Scenario s = gen.generate(i);
    if (s.horizon_units > 400) continue;  // keep the test cheap
    const RunSpec spec = spec_from_scenario(s);
    const std::string control = run_uninterrupted(spec);
    const std::string path =
        "ckpt_scenario_" + std::to_string(i) + ".snap";
    EXPECT_EQ(run_killed_and_resumed(spec, 29, path), control)
        << s.describe();
    ++tested;
  }
  EXPECT_EQ(tested, 3);
}

TEST(CheckpointEngine, ChainedResumeStaysIdentical) {
  // Resume, run a bit, checkpoint again, resume again: determinism must
  // survive arbitrarily many kill points in one lineage.
  const RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  const std::string control = run_uninterrupted(spec);

  const std::string p1 = "ckpt_chain_1.snap";
  const std::string p2 = "ckpt_chain_2.snap";
  {
    auto engine = snapshot::build_engine(spec);
    sim::StopCondition stop = sim::until(spec.horizon_units * kTicksPerUnit);
    stop.max_total_slots = 40;
    engine->run(stop);
    snapshot::write_checkpoint(p1, spec, *engine);
  }
  {
    snapshot::ResumedRun mid = snapshot::resume_checkpoint(p1);
    sim::StopCondition stop = sim::until(spec.horizon_units * kTicksPerUnit);
    stop.max_total_slots = 160;  // cumulative: 120 further events
    mid.engine->run(stop);
    snapshot::write_checkpoint(p2, mid.spec, *mid.engine);
  }
  snapshot::ResumedRun last = snapshot::resume_checkpoint(p2);
  last.engine->run(sim::until(spec.horizon_units * kTicksPerUnit));
  EXPECT_EQ(render(spec, *last.engine), control);
}

TEST(CheckpointEngine, RunSpecRoundTrip) {
  RunSpec spec = spec_from_golden(testing::engine_golden_cases()[1]);
  spec.checkpoint_interval = 4096;
  spec.allow_control = false;
  spec.prune_interval = 123;
  snapshot::Writer w;
  snapshot::save_run_spec(w, spec);
  snapshot::Reader r(w.buffer());
  EXPECT_EQ(snapshot::load_run_spec(r), spec);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(CheckpointEngine, AutoSaverRotatesWithBoundedRetention) {
  RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  spec.checkpoint_interval = 50;
  const std::string dir = "ckpt_retention_dir";
  std::filesystem::remove_all(dir);

  snapshot::AutoSaver saver(dir, spec, 2);
  EXPECT_EQ(saver.latest(), "");
  auto engine = snapshot::build_engine(spec);
  saver.run(*engine, sim::until(spec.horizon_units * kTicksPerUnit));

  // Many autosaves fired, but only `retention` files remain — the oldest
  // were removed, and files() lists survivors oldest-first.
  ASSERT_EQ(saver.files().size(), 2u);
  EXPECT_LT(saver.files()[0], saver.files()[1]);
  EXPECT_EQ(saver.latest(), saver.files()[1]);
  std::size_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".snap");
    ++on_disk;
  }
  EXPECT_EQ(on_disk, 2u);

  // The newest survivor must resume cleanly.
  snapshot::ResumedRun run = snapshot::resume_checkpoint(saver.latest());
  EXPECT_EQ(run.spec, spec);
  std::filesystem::remove_all(dir);

  // The cadence comes from the spec; without one there is nothing to do.
  spec.checkpoint_interval = 0;
  EXPECT_THROW(snapshot::AutoSaver(dir, spec), std::invalid_argument);
}

// AutoSaver::run stops where engine.run(stop) alone would, whatever ends
// the run — a predicate or a slot budget, at a multiple of the interval
// or between two — and saves at every multiple of it up to there.
TEST(CheckpointEngine, AutoSaverStopsWhereTheStopConditionDoes) {
  RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  spec.checkpoint_interval = 50;
  const std::string dir = "ckpt_stop_dir";
  auto at_least = [](std::uint64_t slots) {
    sim::StopCondition stop;
    stop.predicate = [slots](const sim::Engine& e) {
      return e.stats().total_slots >= slots;
    };
    return stop;
  };
  auto budget = [](std::uint64_t slots) {
    sim::StopCondition stop;
    stop.max_total_slots = slots;
    return stop;
  };
  for (const sim::StopCondition& stop :
       {at_least(100), at_least(120), budget(150), budget(170)}) {
    auto alone = snapshot::build_engine(spec);
    alone->run(stop);
    const std::uint64_t end = alone->stats().total_slots;
    SCOPED_TRACE(end);
    std::filesystem::remove_all(dir);
    auto saved = snapshot::build_engine(spec);
    snapshot::AutoSaver saver(dir, spec, /*retention=*/100);
    saver.run(*saved, stop);
    EXPECT_EQ(saved->stats().total_slots, end);
    EXPECT_EQ(saver.files().size(), end / spec.checkpoint_interval);
  }
  std::filesystem::remove_all(dir);
}

/// The bytes of every file in `dir`, by name.
std::map<std::string, std::vector<std::uint8_t>> files_in(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

// The determinism contract, save by save: a run resumed from its j-th
// autosave, autosaving on into the directory it resumed from, writes
// saves j+1, j+2, ... under the same names and with the same bytes as
// the uninterrupted run. Covers a dense and a general-loop schedule.
TEST(CheckpointEngine, ResumedAutosaveWritesTheUninterruptedSaves) {
  for (const char* policy : {"perstation", "random"}) {
    SCOPED_TRACE(policy);
    RunSpec spec;
    spec.protocol = "ao-arrow";
    spec.n = 4;
    spec.bound_r = 3;
    spec.slot_policy = policy;
    spec.horizon_units = 600;
    spec.checkpoint_interval = 113;
    const sim::StopCondition stop =
        sim::until(spec.horizon_units * kTicksPerUnit);
    const std::string whole = "ckpt_whole_dir";
    std::filesystem::remove_all(whole);
    auto engine = snapshot::build_engine(spec);
    snapshot::AutoSaver(whole, spec, /*retention=*/1000).run(*engine, stop);
    const auto control = files_in(whole);
    ASSERT_GE(control.size(), 6u);

    for (const std::size_t j : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(j);
      const std::string dir = "ckpt_resumed_dir";
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      auto it = control.begin();
      for (std::size_t i = 0; i < j; ++i, ++it)
        std::ofstream(dir + "/" + it->first, std::ios::binary)
            .write(reinterpret_cast<const char*>(it->second.data()),
                   static_cast<std::streamsize>(it->second.size()));
      snapshot::ResumedRun run =
          snapshot::resume_checkpoint(snapshot::newest_checkpoint(dir));
      snapshot::AutoSaver(dir, run.spec, 1000).run(*run.engine, stop);
      EXPECT_EQ(files_in(dir), control);
      std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(whole);
  }
}

/// Create empty files named `names` in a fresh directory `dir`.
void make_files(const std::string& dir,
                const std::vector<std::string>& names) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& name : names) std::ofstream(dir + "/" + name).put('x');
}

TEST(CheckpointEngine, NewestCheckpointIsTheHighestCounter) {
  const std::string dir = "ckpt_newest_dir";
  // Counters compare as numbers, whatever their width or the directory
  // order, and names that are not AutoSaver files do not count.
  make_files(dir, {"ckpt-000002.snap", "ckpt-000010.snap", "ckpt-000009.snap",
                   "ckpt-7.snap", "ckpt-000011.snap.tmp", "ckpt-x12.snap",
                   "ckpt-.snap", "ckpt-+13.snap", "other-000014.snap",
                   "ckpt-99999999999999999999999.snap"});
  EXPECT_EQ(snapshot::newest_checkpoint(dir), dir + "/ckpt-000010.snap");
  // Past 999999 saves the names stop sorting as text.
  make_files(dir, {"ckpt-999999.snap", "ckpt-1000000.snap"});
  EXPECT_EQ(snapshot::newest_checkpoint(dir), dir + "/ckpt-1000000.snap");
  make_files(dir, {"notes.txt"});
  EXPECT_EQ(snapshot::newest_checkpoint(dir), "");
  std::filesystem::remove_all(dir);
  EXPECT_EQ(snapshot::newest_checkpoint(dir), "");  // no such directory
}

TEST(CheckpointEngine, AutoSaverNumbersOnInAUsedDirectory) {
  RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  spec.checkpoint_interval = 50;
  const std::string dir = "ckpt_numbering_dir";
  make_files(dir, {"ckpt-999999.snap"});
  auto engine = snapshot::build_engine(spec);
  engine->run(sim::until(spec.horizon_units * kTicksPerUnit / 2));

  snapshot::AutoSaver first(dir, spec, 5);
  first.save(*engine);
  EXPECT_EQ(first.latest(), dir + "/ckpt-1000000.snap");
  first.save(*engine);
  // A second saver in the same directory — a resumed run autosaving where
  // it was resumed from — numbers on past every file already there, so
  // the newest-checkpoint rule finds its save. It adopts those files, so
  // its retention of 3 holds for the whole directory: the oldest go
  // first, adopted or not.
  auto on_disk = [&dir] {
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++count;
    }
    return count;
  };
  EXPECT_EQ(on_disk(), 3u);
  snapshot::AutoSaver second(dir, spec, 3);
  EXPECT_EQ(second.latest(), dir + "/ckpt-1000001.snap");
  second.save(*engine);
  EXPECT_EQ(second.latest(), dir + "/ckpt-1000002.snap");
  EXPECT_EQ(snapshot::newest_checkpoint(dir), second.latest());
  EXPECT_EQ(snapshot::resume_checkpoint(second.latest()).spec, spec);
  EXPECT_EQ(on_disk(), 3u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-999999.snap"));
  second.save(*engine);
  EXPECT_EQ(on_disk(), 3u);
  EXPECT_EQ(second.files(),
            (std::vector<std::string>{dir + "/ckpt-1000001.snap",
                                      dir + "/ckpt-1000002.snap",
                                      dir + "/ckpt-1000003.snap"}));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointEngine, LoadIntoDifferentConfigurationIsMismatch) {
  const RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  auto engine = snapshot::build_engine(spec);
  sim::StopCondition stop;
  stop.max_total_slots = 25;
  engine->run(stop);
  snapshot::Writer w;
  engine->save_state(w);

  RunSpec other = spec;
  other.n = spec.n + 1;
  auto victim = snapshot::build_engine(other);
  snapshot::Reader r(w.buffer());
  try {
    victim->load_state(r);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }
}

TEST(CheckpointEngine, DecodeRejectsUnknownProtocolAndTrailingBytes) {
  const RunSpec spec = spec_from_golden(testing::engine_golden_cases()[0]);
  auto engine = snapshot::build_engine(spec);
  engine->run(sim::until(10 * kTicksPerUnit));

  // Unknown registry name: the snapshot came from a binary shipping
  // protocols this one does not.
  RunSpec alien = spec;
  alien.protocol = "carrier-pigeon";
  auto payload = snapshot::encode_checkpoint(alien, *engine);
  try {
    snapshot::decode_checkpoint(payload);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }

  // Trailing garbage after a valid engine state: schema drift, kCorrupt.
  payload = snapshot::encode_checkpoint(spec, *engine);
  payload.push_back(0);
  try {
    snapshot::decode_checkpoint(payload);
    FAIL() << "expected SnapshotError(kCorrupt)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
  }
}

// ---- crafted element counts --------------------------------------------
//
// A payload can pass every framing check (magic, version, CRC) and still
// declare more elements than it holds. Each decoder that sizes a
// container from a count must refuse such a count as kCorrupt before it
// allocates — not die in reserve() with bad_alloc (2^40 elements) or
// length_error (2^62).

constexpr std::uint64_t kHugeCounts[] = {std::uint64_t{1} << 40,
                                         std::uint64_t{1} << 62};

/// Overwrite the little-endian u64 at byte `at`.
void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  ASSERT_LE(at + 8, bytes.size());
  for (std::size_t i = 0; i < 8; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Save `saved`, replace the count at byte `at` with each huge count and
/// expect `load` of the result to throw SnapshotError(kCorrupt).
template <typename Saved, typename Load>
void expect_huge_count_corrupt(const Saved& saved, std::size_t at,
                               Load&& load) {
  snapshot::Writer w;
  saved.save_state(w);
  for (const std::uint64_t count : kHugeCounts) {
    SCOPED_TRACE(count);
    std::vector<std::uint8_t> bytes = w.buffer();
    put_u64(bytes, at, count);
    snapshot::Reader r(bytes);
    try {
      load(r);
      ADD_FAILURE() << "expected SnapshotError(kCorrupt)";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
    }
  }
}

// Ledger layout: keep_history u8, restrained k u32, jam u8, live-entry
// count u64, entries, finalized cursor u64, history count u64, ...
constexpr std::size_t kLedgerWindowCountAt = 1 + 4 + 1;
constexpr std::size_t kLedgerHistoryCountAt = kLedgerWindowCountAt + 8 + 8;

TEST(CraftedCount, LedgerWindowCountIsCorrupt) {
  const channel::Ledger empty;
  expect_huge_count_corrupt(empty, kLedgerWindowCountAt,
                            [](snapshot::Reader& r) {
                              channel::Ledger fresh;
                              fresh.load_state(r);
                            });
}

TEST(CraftedCount, LedgerHistoryCountIsCorrupt) {
  const channel::Ledger empty(/*keep_history=*/true);
  expect_huge_count_corrupt(empty, kLedgerHistoryCountAt,
                            [](snapshot::Reader& r) {
                              channel::Ledger fresh(/*keep_history=*/true);
                              fresh.load_state(r);
                            });
}

TEST(CraftedCount, CollectorHistogramBucketCountIsCorrupt) {
  // Thirteen u64 run counters precede the latency histogram's buckets.
  const metrics::Collector collector(2);
  expect_huge_count_corrupt(collector, 13 * 8, [](snapshot::Reader& r) {
    metrics::Collector fresh(2);
    fresh.load_state(r);
  });
}

TEST(CraftedCount, SaturatingInjectorLogCountIsCorrupt) {
  // With no log kept the log count is the state's last field.
  const adversary::SaturatingInjector injector(
      util::Ratio(1, 2), kTicksPerUnit, adversary::TargetPattern::kRoundRobin);
  snapshot::Writer w;
  injector.save_state(w);
  expect_huge_count_corrupt(injector, w.buffer().size() - 8,
                            [](snapshot::Reader& r) {
                              adversary::SaturatingInjector fresh(
                                  util::Ratio(1, 2), kTicksPerUnit,
                                  adversary::TargetPattern::kRoundRobin);
                              fresh.load_state(r);
                            });
}

TEST(CraftedCount, MbtfListCountIsCorrupt) {
  // The move-to-front list count leads MBTF's protocol state.
  const baselines::MbtfProtocol mbtf;
  expect_huge_count_corrupt(mbtf, 0, [](snapshot::Reader& r) {
    baselines::MbtfProtocol fresh;
    sim::StationContext ctx(1, 4, 1, 1);
    fresh.load_state(r, ctx);
  });
}

// ---- crafted committed slots -------------------------------------------
//
// Every slot an engine commits starts at a time >= 0 and lasts [1, R]
// units (begin_slot checks the policy's length). A payload whose slot
// breaks that would wrap the packed scheduler key, stall the station for
// good, or trip an internal check on the next run(); load_state must
// refuse it as kCorrupt.

// Engine layout up to station 1's committed slot, with no injector (so an
// empty queue): n u32, R u32, four flags, queue length u64, queue cost
// i64, four RNG words, slot index u64, slot begin i64, slot end i64.
constexpr std::size_t kStation1SlotBeginAt = 4 + 4 + 4 + 8 + 8 + 4 * 8 + 8;
constexpr std::size_t kStation1SlotEndAt = kStation1SlotBeginAt + 8;

std::int64_t get_i64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= std::uint64_t{bytes[at + i]} << (8 * i);
  return static_cast<std::int64_t>(v);
}

/// A two-station ca-arrow run (R = 1, no injector): station 1's queue is
/// empty, so its committed slot sits at the offsets above.
RunSpec small_spec() {
  RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 2;
  spec.bound_r = 1;
  spec.slot_policy = "sync";
  spec.has_injector = false;
  return spec;
}

/// Engine::save_state of `spec` run to 100 units.
std::vector<std::uint8_t> saved_at_100(const RunSpec& spec) {
  auto engine = snapshot::build_engine(spec);
  engine->run(sim::until(100 * kTicksPerUnit));
  snapshot::Writer w;
  engine->save_state(w);
  return w.take();
}

/// Save a small_spec() engine at 100 units, set station 1's slot end to
/// `end(slot_begin)` and expect kCorrupt.
template <typename End>
void expect_crafted_slot_end_corrupt(End&& end) {
  const RunSpec spec = small_spec();
  std::vector<std::uint8_t> bytes = saved_at_100(spec);
  const Tick begin = get_i64(bytes, kStation1SlotBeginAt);
  ASSERT_EQ(begin, 100 * kTicksPerUnit);
  ASSERT_EQ(get_i64(bytes, kStation1SlotEndAt), 101 * kTicksPerUnit);
  put_u64(bytes, kStation1SlotEndAt, static_cast<std::uint64_t>(end(begin)));

  auto victim = snapshot::build_engine(spec);
  snapshot::Reader r(bytes);
  try {
    victim->load_state(r);
    FAIL() << "expected SnapshotError(kCorrupt)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
  }
}

TEST(CraftedSlot, NegativeEndIsCorrupt) {
  // -1 packs into a scheduler key above every real one.
  expect_crafted_slot_end_corrupt([](Tick) { return Tick{-1}; });
}

TEST(CraftedSlot, EndBeyondRUnitsIsCorrupt) {
  expect_crafted_slot_end_corrupt(
      [](Tick begin) { return begin + 99900 * kTicksPerUnit; });
}

TEST(CraftedSlot, EndNotAfterBeginIsCorrupt) {
  expect_crafted_slot_end_corrupt([](Tick) { return Tick{0}; });
}

// ---- crafted enum bytes ------------------------------------------------
//
// Every one-byte enum in a snapshot loads through snapshot::load_enum: a
// byte past the last enumerator is kCorrupt, not a cast into a state no
// switch handles (an AM_CHECK abort on the next run()).

/// Set byte `at` of `bytes` to `last` (an enumerator, or the value of a
/// private enum's last one) and expect `load` to accept it, so the byte is
/// the enum's and `last` its bound; then to last + 1 and expect kCorrupt.
template <typename Last, typename Load>
void expect_enum_byte(std::vector<std::uint8_t> bytes, std::size_t at,
                      Last last, Load&& load) {
  ASSERT_LT(at, bytes.size());
  const auto top = static_cast<std::uint8_t>(last);
  bytes[at] = top;
  {
    snapshot::Reader r(bytes);
    EXPECT_NO_THROW(load(r)) << "byte " << at << " is not the enum's";
  }
  bytes[at] = static_cast<std::uint8_t>(top + 1);
  snapshot::Reader r(bytes);
  try {
    load(r);
    ADD_FAILURE() << "expected SnapshotError(kCorrupt) at byte " << at;
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
  }
}

template <typename Saved>
std::vector<std::uint8_t> saved(const Saved& s) {
  snapshot::Writer w;
  s.save_state(w);
  return w.take();
}

/// load_state of a fresh `Protocol` at station 1 of 3, R = 2.
template <typename Protocol>
auto protocol_loader() {
  return [](snapshot::Reader& r) {
    Protocol fresh;
    sim::StationContext ctx(1, 3, 2, 1);
    fresh.load_state(r, ctx);
  };
}

TEST(CraftedByte, CaArrowStateIsCorrupt) {
  expect_enum_byte(saved(core::CaArrowProtocol()), 0,
                   core::CaArrowProtocol::State::kAwaitSequenceEnd,
                   protocol_loader<core::CaArrowProtocol>());
}

TEST(CraftedByte, AoArrowStateIsCorrupt) {
  expect_enum_byte(saved(core::AoArrowProtocol()), 0,
                   core::AoArrowProtocol::State::kSyncTransmit,
                   protocol_loader<core::AoArrowProtocol>());
}

TEST(CraftedByte, AbsStateAndOutcomeAreCorrupt) {
  // id u32, R u32 and two u64 thresholds lead; then state, outcome.
  const core::AbsAutomaton abs(core::AbsAutomaton::standard(1, 2));
  const auto load = [](snapshot::Reader& r) {
    core::AbsAutomaton fresh(core::AbsAutomaton::standard(1, 2));
    fresh.load_state(r);
  };
  expect_enum_byte(saved(abs), 24, /*State::kDone=*/3, load);
  expect_enum_byte(saved(abs), 25, core::AbsAutomaton::Outcome::kEliminated,
                   load);
}

TEST(CraftedByte, AdaptiveAbsStateAndStatusAreCorrupt) {
  const core::AdaptiveAbsProtocol adaptive;
  const auto load = protocol_loader<core::AdaptiveAbsProtocol>();
  expect_enum_byte(saved(adaptive), 0, /*State::kBarrier=*/2, load);
  expect_enum_byte(saved(adaptive), 1,
                   core::AdaptiveAbsProtocol::Status::kObservedWinner, load);
}

TEST(CraftedByte, TreeResolutionOutcomeIsCorrupt) {
  // id u32, bit u32 and the i64 counter lead.
  expect_enum_byte(saved(baselines::TreeResolutionAutomaton(1, 3)), 16,
                   core::LeaderElection::Outcome::kEliminated,
                   [](snapshot::Reader& r) {
                     baselines::TreeResolutionAutomaton fresh(1, 3);
                     fresh.load_state(r);
                   });
}

TEST(CraftedByte, SyncBinaryLeOutcomeIsCorrupt) {
  expect_enum_byte(saved(baselines::SyncBinaryLeAutomaton(1)), 4,
                   core::LeaderElection::Outcome::kEliminated,
                   [](snapshot::Reader& r) {
                     baselines::SyncBinaryLeAutomaton fresh(1);
                     fresh.load_state(r);
                   });
}

TEST(CraftedByte, WindowAdmissionIsCorrupt) {
  // The window's header (kLedgerWindowCountAt) and live count, then the
  // entry: station u32, begin i64, end i64, is_control u8, packet u64,
  // successful u8, decided u8, admission u8.
  channel::Ledger ledger;
  channel::Transmission tx;
  tx.station = 1;
  tx.begin = 0;
  tx.end = kTicksPerUnit;
  ledger.add(tx);
  constexpr std::size_t kAdmissionAt =
      kLedgerWindowCountAt + 8 + 4 + 8 + 8 + 1 + 8 + 1 + 1;
  expect_enum_byte(saved(ledger), kAdmissionAt, channel::Admission::kRejected,
                   [](snapshot::Reader& r) {
                     channel::Ledger fresh;
                     fresh.load_state(r);
                   });
}

/// load_state into a fresh engine of `spec`.
auto engine_loader(const RunSpec& spec) {
  return [spec](snapshot::Reader& r) {
    snapshot::build_engine(spec)->load_state(r);
  };
}

TEST(CraftedByte, EngineSlotActionIsCorrupt) {
  // Station 1's committed action follows its slot end.
  const RunSpec spec = small_spec();
  expect_enum_byte(saved_at_100(spec), kStation1SlotEndAt + 8,
                   SlotAction::kTransmitControl, engine_loader(spec));
}

TEST(CraftedByte, EngineTraceActionAndFeedbackAreCorrupt) {
  // The last trace record ends in its action and feedback bytes. After it
  // come the delivery count u64 (no log kept), now, the injection poll and
  // last injection times, the next packet seq (u64 each), the last
  // successful station u32, steps since prune u64 and the energy flag.
  RunSpec spec = small_spec();
  spec.record_trace = true;
  const std::vector<std::uint8_t> bytes = saved_at_100(spec);
  constexpr std::size_t kTail = 8 + 4 * 8 + 4 + 8 + 1;
  expect_enum_byte(bytes, bytes.size() - kTail - 2,
                   SlotAction::kTransmitControl, engine_loader(spec));
  expect_enum_byte(bytes, bytes.size() - kTail - 1, Feedback::kAck,
                   engine_loader(spec));
}

}  // namespace
}  // namespace asyncmac
