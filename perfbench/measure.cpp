// perfbench_measure — the measuring half of the perfbench benchmark.
//
// One process runs one workload (so its peak RSS belongs to that
// workload alone) and prints one JSON object with raw samples on its last
// stdout line; run.py turns those samples into the reported metrics.
//
//   perfbench_measure --workload <name> --seed <n> --seconds <s> --trace 0|1
//   perfbench_measure --probe-start      (exit right after static init)
//
// A run builds its inputs from the seed several times (set-up samples),
// computes the reference outputs its checks compare against, runs one
// untimed warm-up iteration, then repeats the workload's timed call(s) in
// a closed loop (one caller, jobs = 1) until --seconds have passed. Every
// iteration's outputs are checked. With --trace 1 the loop alternates
// untraced and traced iterations: a traced iteration resets and enables
// telemetry, records in-memory spans around this file's calls into each
// layer, and keeps the telemetry counters it produced. Spans are taken
// only here, around public entry points — nothing inside src/ is timed
// by this benchmark.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "analysis/msr.h"
#include "analysis/registry.h"
#include "analysis/stability.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "verify/campaign.h"
#include "verify/scenario.h"

namespace {

using namespace asyncmac;
using Clock = std::chrono::steady_clock;

/// The seed at which msr_table rows must equal bench_msr.csv.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupReps = 5;
constexpr int kMinTimedIterations = 3;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// -------------------------------------------------------- host speed

/// A fixed amount of work that does not depend on the library: dependent
/// loads around a random cycle through a 2 MiB table (the memory traffic
/// of ledger windows and queues) and a PRNG-keyed binary heap of event
/// times (the scheduler's shape). Its time, taken between timed calls,
/// tells how fast the shared host runs at that moment. It is the same
/// code at every commit, so run.py scales a run's times by the run's
/// median probe to take out the host's drift from run to run.
class HostProbe {
 public:
  HostProbe() : next_(1u << 19) {
    std::vector<std::uint32_t> order(next_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      next_[order[i]] = order[(i + 1) % order.size()];
  }

  /// Runs the kernel once; returns its wall time in seconds.
  double sample() {
    const double t0 = now_s();
    std::uint32_t at = 0;
    for (int i = 0; i < 150000; ++i) at = next_[at];
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint64_t x = 0x2545f4914f6cdd1dULL + at;
    for (int i = 0; i < 1024; ++i)
      heap.push(x = x * 6364136223846793005ULL + 1);
    for (int i = 0; i < 250000; ++i) {
      const std::uint64_t top = heap.top();
      heap.pop();
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      heap.push(top + (x >> 40));
    }
    sink_ += heap.top() + at;
    return now_s() - t0;
  }

  /// Printed with the results, so the kernel's work cannot be elided.
  std::uint64_t sink() const { return sink_; }

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------- spans

struct SpanRec {
  std::string name;
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// In-memory span store. Spans nest through an open-span stack; spans
/// reconstructed after the fact (MSR probes) are added with an explicit
/// parent.
class Tracer {
 public:
  int open(const std::string& name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, now_s(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_s();
    stack_.pop_back();
  }
  void add(const std::string& name, int parent, double start, double end) {
    spans_.push_back({name, parent, start, end});
  }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Span {
 public:
  Span(Tracer* t, const std::string& name)
      : t_(t), idx_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_) t_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ------------------------------------------------------------ output

/// What one iteration produced: one canonical byte string per output
/// unit (grid cell, MSR row, fuzz case, live run) plus plain facts the
/// per-layer metrics need (collisions, probe counts, ...).
struct Output {
  std::vector<std::string> units;
  std::map<std::string, double> facts;
  /// An iteration made of several timed calls (msr_table rows): each
  /// call's wall time, and the host probes taken between consecutive calls.
  std::vector<double> part_s;
  std::vector<double> probe_s;
};

/// Counter and gauge values read back from telemetry::Registry.
using Counts = std::map<std::string, std::uint64_t>;

Counts read_counts() {
  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  Counts out;
  for (const auto& [name, v] : snap.counters)
    if (v) out[name] = v;
  for (const auto& [name, v] : snap.gauges)
    if (v) out[name] = v;
  return out;
}

/// Runs `fn` with telemetry reset and enabled; returns what it counted.
template <typename F>
Counts counted(F&& fn) {
  telemetry::Registry::global().reset_values();
  telemetry::set_enabled(true);
  try {
    fn();
  } catch (...) {
    telemetry::set_enabled(false);
    throw;
  }
  telemetry::set_enabled(false);
  return read_counts();
}

/// A trace-only pass outside the timed loop (fuzz per-case split, live's
/// sim::Engine control run) with the counters it produced.
struct Phase {
  std::string name;
  Counts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs from the seed. Called kSetupReps times; each call
  /// replaces the previous inputs.
  virtual void setup(Tracer* t) = 0;
  /// Compute whatever the checks compare against (untimed).
  virtual void prepare_reference() {}
  /// One timed iteration. `t` is null on untraced iterations; `host` is
  /// set on timed untraced ones, for probes between several timed calls.
  virtual Output run(Tracer* t, HostProbe* host) = 0;
  /// Check one iteration's units; appends one line per failed unit.
  virtual void check(const Output& out, std::vector<std::string>& why) = 0;
  /// Trace-only passes after the loop.
  virtual std::vector<Phase> extras(Tracer&) { return {}; }
};

// ------------------------------------------------------------- grids

/// run_grid with one worker. Untraced iterations call run_grid itself;
/// traced ones compose the same public pieces (plan_grid,
/// grid_cohort_width, run_grid_cells per unit) so each unit gets a span.
/// Records must be byte-equal to the same spec at cohort=1 (the cohort
/// contract).
class GridWorkload final : public Workload {
 public:
  explicit GridWorkload(analysis::ExperimentSpec spec)
      : base_(std::move(spec)) {}

  void setup(Tracer* t) override {
    spec_ = base_;
    for (const auto& p : spec_.protocols) (void)analysis::protocol_maker(p);
    Span s(t, "analysis.plan");
    plan_ = analysis::plan_grid(spec_);
    width_ = analysis::grid_cohort_width(spec_);
  }

  void prepare_reference() override {
    analysis::ExperimentSpec ref = spec_;
    ref.cohort = 1;
    reference_ = encode(analysis::run_grid(ref));
  }

  Output run(Tracer* t, HostProbe*) override {
    std::vector<analysis::ExperimentRecord> records;
    if (!t) {
      records = analysis::run_grid(spec_);
    } else {
      analysis::GridPlan plan;
      {
        Span s(t, "analysis.plan");
        plan = analysis::plan_grid(spec_);
        (void)analysis::grid_cohort_width(spec_);  // run_grid computes it too
      }
      for (const analysis::GridUnit& u : plan.units) {
        std::vector<std::size_t> todo(u.count);
        for (std::size_t i = 0; i < u.count; ++i) todo[i] = u.first + i;
        Span s(t, "analysis.unit");
        auto recs = analysis::run_grid_cells(spec_, plan, todo);
        records.insert(records.end(), std::make_move_iterator(recs.begin()),
                       std::make_move_iterator(recs.end()));
      }
    }
    Output out;
    out.units = encode(records);
    double collided = 0;
    for (const auto& r : records) collided += static_cast<double>(r.collisions);
    out.facts["collided"] = collided;
    out.facts["cohort_width"] = width_;
    out.facts["units"] = static_cast<double>(plan_.units.size());
    return out;
  }

  void check(const Output& out, std::vector<std::string>& why) override {
    if (out.units.size() != reference_.size()) {
      why.push_back("grid: " + std::to_string(out.units.size()) +
                    " records, expected " + std::to_string(reference_.size()));
      return;
    }
    for (std::size_t i = 0; i < reference_.size(); ++i)
      if (out.units[i] != reference_[i])
        why.push_back("grid cell " + std::to_string(i) +
                      " differs from its cohort=1 record");
  }

 private:
  static std::vector<std::string> encode(
      const std::vector<analysis::ExperimentRecord>& records) {
    std::vector<std::string> out;
    for (const auto& r : records) {
      snapshot::Writer w;
      analysis::save_record(w, r);
      out.emplace_back(w.buffer().begin(), w.buffer().end());
    }
    return out;
  }

  analysis::ExperimentSpec base_;
  analysis::ExperimentSpec spec_;
  analysis::GridPlan plan_;
  unsigned width_ = 0;
  std::vector<std::string> reference_;
};

analysis::ExperimentSpec grid_lockstep_spec(std::uint64_t seed) {
  analysis::ExperimentSpec s;
  s.protocols = {"ca-arrow"};
  s.station_counts = {16, 64};
  s.bounds_r = {1};
  s.rho_percents = {30, 50, 70, 90};
  s.slot_policies = {"sync"};
  s.horizon_units = 20000;
  s.seed = seed;
  s.seeds = 4;
  s.jobs = 1;
  s.cohort = 0;
  return s;
}

analysis::ExperimentSpec grid_scalar_spec(std::uint64_t seed) {
  analysis::ExperimentSpec s;
  s.protocols = {"ao-arrow"};
  s.station_counts = {8, 32};
  s.bounds_r = {4};
  s.rho_percents = {50, 70, 90};
  s.slot_policies = {"perstation"};
  s.horizon_units = 15000;
  s.seed = seed;
  s.seeds = 4;
  s.jobs = 1;
  s.cohort = 0;
  return s;
}

// --------------------------------------------------------- msr_table

/// One row of bench/bench_msr.cpp: same protocol, R, slot policy,
/// injector and seed-vote count; `pinned` is its bench_msr.csv value.
struct MsrRow {
  const char* label;
  const char* protocol;
  std::uint32_t r;
  bool synchronous;
  int seeds;
  int pinned;
};

constexpr MsrRow kMsrRows[] = {
    {"AO-ARRoW", "ao-arrow", 1, true, 1, 99},
    {"AO-ARRoW", "ao-arrow", 2, false, 1, 99},
    {"AO-ARRoW", "ao-arrow", 4, false, 1, 98},
    {"CA-ARRoW", "ca-arrow", 1, true, 1, 99},
    {"CA-ARRoW", "ca-arrow", 2, false, 1, 99},
    {"CA-ARRoW", "ca-arrow", 4, false, 1, 99},
    {"RRW", "rrw", 1, true, 1, 99},
    {"RRW", "rrw", 2, false, 1, 11},
    {"MBTF", "mbtf", 1, true, 1, 99},
    {"MBTF", "mbtf", 2, false, 1, 11},
    {"slotted ALOHA", "aloha", 1, true, 3, 42},
    {"BEB", "beb", 1, true, 3, 56},
    {"silence-TDMA", "silence-tdma", 1, true, 1, 40},
};
constexpr std::uint32_t kMsrStations = 4;

analysis::RateEngineFactory msr_factory(const MsrRow& row) {
  const std::uint32_t n = kMsrStations;
  const std::uint32_t r = row.r;
  const bool sync = row.synchronous;
  const std::string protocol = row.protocol;
  return [=](util::Ratio rho, std::uint64_t seed) {
    sim::EngineConfig cfg;
    cfg.n = n;
    cfg.bound_r = r;
    cfg.seed = seed;
    std::unique_ptr<sim::SlotPolicy> policy;
    if (sync) {
      policy = std::make_unique<adversary::UniformSlotPolicy>(kTicksPerUnit);
    } else {
      std::vector<Tick> lens(n);
      for (std::uint32_t i = 0; i < n; ++i) lens[i] = units(1 + i % r);
      policy = std::make_unique<adversary::PerStationSlotPolicy>(lens);
    }
    return std::make_unique<sim::Engine>(
        cfg, analysis::make_protocols(protocol, n), std::move(policy),
        std::make_unique<adversary::SaturatingInjector>(
            rho, 8 * units(r), adversary::TargetPattern::kRoundRobin, 1,
            seed + 1));
  };
}

/// estimate_msr over every row, in order. Traced iterations wrap each
/// row's factory: the factory runs at the start of every stability probe
/// (one engine per probe and seed vote), so consecutive factory calls
/// bound the probes, and the time inside the factory is engine build.
class MsrWorkload final : public Workload {
 public:
  explicit MsrWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer*) override {
    factories_.clear();
    configs_.clear();
    for (const MsrRow& row : kMsrRows) {
      (void)analysis::protocol_maker(row.protocol);
      factories_.push_back(msr_factory(row));
      analysis::MsrConfig cfg;
      cfg.probe.horizon = units(150000);
      cfg.probe.chunks = 8;
      cfg.probe.ceiling = units(20000);
      cfg.seeds = row.seeds;
      cfg.base_seed = seed_;
      cfg.jobs = 1;
      configs_.push_back(cfg);
    }
  }

  Output run(Tracer* t, HostProbe* host) override {
    Output out;
    double probes = 0, builds = 0;
    for (std::size_t i = 0; i < factories_.size(); ++i) {
      // Rows differ 20x in cost; run.py sums each row's median, so one slow
      // stretch of the host moves one row's sample, not the table's. The
      // probes between rows sample the host all through a long table.
      if (host && i > 0) out.probe_s.push_back(host->sample());
      analysis::MsrResult res;
      const double row_start = now_s();
      if (!t) {
        res = analysis::estimate_msr(factories_[i], configs_[i]);
      } else {
        Span row(t, "analysis.msr_row");
        const int row_idx = t->current();
        std::vector<double> starts;
        const auto& base = factories_[i];
        auto wrapped = [&](util::Ratio rho, std::uint64_t seed) {
          const double s = now_s();
          auto engine = base(rho, seed);
          const double e = now_s();
          t->add("analysis.engine_build", row_idx, s, e);
          starts.push_back(s);
          return engine;
        };
        res = analysis::estimate_msr(wrapped, configs_[i]);
        const double end = now_s();
        for (std::size_t k = 0; k < starts.size(); ++k)
          t->add("analysis.probe", row_idx, starts[k],
                 k + 1 < starts.size() ? starts[k + 1] : end);
        builds += static_cast<double>(starts.size());
      }
      out.part_s.push_back(now_s() - row_start);
      probes += res.probes;
      std::ostringstream os;
      os << kMsrRows[i].label << ',' << kMsrRows[i].r << ',' << res.msr_pct
         << ',' << res.probes;
      out.units.push_back(os.str());
    }
    out.facts["msr_probes"] = probes;
    if (t) out.facts["engine_builds"] = builds;
    return out;
  }

  void check(const Output& out, std::vector<std::string>& why) override {
    const std::size_t rows = std::size(kMsrRows);
    if (out.units.size() != rows) {
      why.push_back("msr: wrong row count");
      return;
    }
    for (std::size_t i = 0; i < rows; ++i) {
      const MsrRow& row = kMsrRows[i];
      const std::string& u = out.units[i];  // label,R,msr_pct,probes
      const int msr = std::stoi(u.substr(u.find(',', u.find(',') + 1) + 1));
      const std::string p = row.protocol;
      bool ok = true;
      if (p == "ao-arrow" || p == "ca-arrow" ||
          ((p == "rrw" || p == "mbtf") && row.r == 1))
        ok = msr >= 95;
      else if (p == "rrw" || p == "mbtf")
        ok = msr <= 20;
      else
        ok = msr > 20 && msr < 95;
      if (seed_ == kDefaultSeed && msr != row.pinned) ok = false;
      if (!ok)
        why.push_back("msr row " + u + " breaks Table I shape" +
                      (seed_ == kDefaultSeed
                           ? " or bench_msr.csv (" +
                                 std::to_string(row.pinned) + ")"
                           : std::string()));
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<analysis::RateEngineFactory> factories_;
  std::vector<analysis::MsrConfig> configs_;
};

// ----------------------------------------------------- fuzz_campaign

constexpr std::uint64_t kFuzzCases = 1000;

/// run_campaign over the default protocol pool with shrinking on. The
/// traced run adds one pass that splits each case's cost into the
/// simulation (run_scenario) and the whole checked case (run_case).
class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* t) override {
    cfg_ = {};
    cfg_.seed = seed_;
    cfg_.cases = kFuzzCases;
    cfg_.jobs = 1;
    cfg_.shrink = true;
    Span s(t, "verify.gen");
    const verify::ScenarioGen gen(seed_);
    cases_.clear();
    for (std::uint64_t i = 0; i < kFuzzCases; ++i)
      cases_.push_back(gen.generate(i));
  }

  Output run(Tracer* t, HostProbe*) override {
    verify::CampaignResult res;
    {
      Span s(t, "verify.campaign");
      res = verify::run_campaign(cfg_);
    }
    Output out;
    for (const auto& v : res.verdicts)
      out.units.push_back((v.ok ? "ok " : "FAIL ") +
                          std::to_string(v.case_seed) + ' ' + v.violation);
    out.units.push_back(verify::summarize(res));
    out.facts["cases"] = static_cast<double>(res.cases_run);
    return out;
  }

  void check(const Output& out, std::vector<std::string>& why) override {
    if (out.units.size() != kFuzzCases + 1) {
      why.push_back("fuzz: " + std::to_string(out.units.size() - 1) +
                    " verdicts, expected " + std::to_string(kFuzzCases));
      return;
    }
    for (std::size_t i = 0; i < kFuzzCases; ++i)
      if (out.units[i].rfind("ok ", 0) != 0)
        why.push_back("fuzz case " + out.units[i]);
  }

  std::vector<Phase> extras(Tracer& t) override {
    std::vector<Phase> phases;
    std::uint64_t collided = 0, transmissions = 0;
    Counts sim = counted([&] {
      for (const auto& c : cases_) {
        Span s(&t, "verify.sim");
        const auto engine = verify::run_scenario(c);
        collided += engine->channel_stats().collided;
        transmissions += engine->channel_stats().transmissions;
      }
    });
    sim["fact.collided"] = collided;
    sim["fact.transmissions"] = transmissions;
    phases.push_back({"scenarios", std::move(sim)});
    // Same telemetry state as the simulation pass, so the two compare.
    (void)counted([&] {
      for (const auto& c : cases_) {
        Span s(&t, "verify.case");
        (void)verify::run_case(c);
      }
    });
    return phases;
  }

 private:
  std::uint64_t seed_;
  verify::CampaignConfig cfg_;
  std::vector<verify::Scenario> cases_;
};

// ------------------------------------------------------ live_virtual

/// live::run_virtual (daemon + station machines over the virtual clock).
/// Its stats, channel stats, backlog samples and verdict must equal
/// sim::Engine on the same RunSpec.
class LiveWorkload final : public Workload {
 public:
  explicit LiveWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer*) override {
    spec_ = {};
    spec_.protocol = "ao-arrow";
    spec_.n = 8;
    spec_.bound_r = 4;
    spec_.slot_policy = "perstation";
    spec_.has_injector = true;
    spec_.injector.kind = "saturating";
    spec_.injector.rho = util::Ratio(7, 10);
    spec_.injector.pattern = "roundrobin";
    spec_.injector.seed = seed_;
    spec_.seed = seed_;
    spec_.horizon_units = 40000;
    (void)analysis::protocol_maker(spec_.protocol);
    opt_ = {};
  }

  void prepare_reference() override { reference_ = run_engine(); }

  Output run(Tracer* t, HostProbe*) override {
    live::VirtualRunReport rep;
    {
      Span s(t, "live.run_virtual");
      rep = live::run_virtual(spec_, opt_);
    }
    Output out;
    std::ostringstream os;
    os << "completed=" << rep.completed << " failed=" << rep.daemon_failed
       << " exit=" << rep.station_exit_max << ' ' << rep.reason << '\n'
       << digest(rep.stats, rep.channel, rep.samples, rep.verdict);
    out.units.push_back(os.str());
    out.facts["slots"] = static_cast<double>(rep.stats.total_slots);
    out.facts["collided"] = static_cast<double>(rep.channel.collided);
    out.facts["transmissions"] =
        static_cast<double>(rep.channel.transmissions);
    return out;
  }

  void check(const Output& out, std::vector<std::string>& why) override {
    const std::string want = "completed=1 failed=0 exit=0 \n" + reference_;
    if (out.units.size() != 1 || out.units[0] != want)
      why.push_back("live run differs from sim::Engine on the same RunSpec");
  }

  std::vector<Phase> extras(Tracer& t) override {
    std::vector<Phase> phases;
    for (int rep = 0; rep < 5; ++rep) {
      Counts c = counted([&] {
        Span s(&t, "sim.engine_run");
        (void)run_engine();
      });
      phases.push_back({"engine", std::move(c)});
    }
    return phases;
  }

 private:
  static std::string digest(const metrics::RunStats& stats,
                            const channel::LedgerStats& channel,
                            const std::vector<Tick>& samples,
                            analysis::Verdict verdict) {
    std::ostringstream os;
    os << metrics::to_json(stats, &channel) << "\nsamples";
    for (Tick s : samples) os << ' ' << s;
    os << "\nverdict " << analysis::to_string(verdict);
    return os.str();
  }

  /// The control run: sim::Engine from the same RunSpec, sampled at the
  /// same chunk boundaries the daemon samples.
  std::string run_engine() const {
    auto engine = snapshot::build_engine(spec_);
    const Tick horizon = units(spec_.horizon_units);
    const Tick step = horizon / opt_.chunks;
    std::vector<Tick> samples;
    for (int k = 1; k <= opt_.chunks; ++k) {
      engine->run(sim::until(k * step));
      samples.push_back(engine->stats().queued_cost);
    }
    return digest(engine->stats(), engine->channel_stats(), samples,
                  analysis::classify_backlog_samples(samples,
                                                     opt_.stability));
  }

  std::uint64_t seed_;
  snapshot::RunSpec spec_;
  live::VirtualRunOptions opt_;
  std::string reference_;
};

// -------------------------------------------------------------- main

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "grid_lockstep")
    return std::make_unique<GridWorkload>(grid_lockstep_spec(seed));
  if (name == "grid_scalar")
    return std::make_unique<GridWorkload>(grid_scalar_spec(seed));
  if (name == "msr_table") return std::make_unique<MsrWorkload>(seed);
  if (name == "fuzz_campaign") return std::make_unique<FuzzWorkload>(seed);
  if (name == "live_virtual") return std::make_unique<LiveWorkload>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

// Minimal JSON emission (strings escaped, doubles at full precision).
std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map>
std::string jmap(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += jstr(k) + ':' + jnum(static_cast<double>(v));
  }
  return out + "}";
}

std::string jlist(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? "," : "") + jnum(xs[i]);
  return out + "]";
}

struct Iteration {
  bool traced = false;
  double wall = 0;
  int root = -1;  ///< the iteration's span (traced only)
  Counts counts;
  std::map<std::string, double> facts;
  /// Timed calls' wall times, and host probes around them: probes[k] and
  /// probes[k + 1] flank parts[k] (untraced iterations only).
  std::vector<double> parts;
  std::vector<double> probes;
};

int usage() {
  std::cerr << "usage: perfbench_measure --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1\n"
               "       perfbench_measure --probe-start\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe-start") {
      std::cout << "{}\n";
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload")
      workload = val;
    else if (arg == "--seed")
      seed = std::stoull(val);
    else if (arg == "--seconds")
      seconds = std::stod(val);
    else if (arg == "--trace")
      trace = val == "1";
    else
      return usage();
  }
  if (workload.empty() || seconds <= 0) return usage();

  auto w = make_workload(workload, seed);
  Tracer tracer;
  Tracer* setup_tracer = trace ? &tracer : nullptr;

  std::vector<double> setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_s();
    w->setup(setup_tracer);
    setup_s.push_back(now_s() - t0);
  }
  w->prepare_reference();

  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::string> first_units;
  auto check = [&](const Output& out, bool traced) {
    attempted += out.units.size();
    const std::size_t before = failures.size();
    w->check(out, failures);
    if (first_units.empty()) {
      first_units = out.units;
    } else if (out.units != first_units && failures.size() == before) {
      // A traced iteration must reproduce the untraced outputs exactly.
      failures.push_back(std::string(traced ? "traced" : "untraced") +
                         " iteration outputs differ from the first");
    }
  };

  check(w->run(nullptr, nullptr), false);  // warm-up: checked, not timed
  HostProbe host;
  (void)host.sample();  // warm-up of the probe itself

  std::vector<Iteration> iters;
  double last_probe = -1;  // the probe after the previous untraced iteration
  const double deadline = now_s() + seconds;
  for (std::size_t i = 0;
       now_s() < deadline ||
       iters.size() < static_cast<std::size_t>(kMinTimedIterations) *
                          (trace ? 2 : 1);
       ++i) {
    Iteration it;
    it.traced = trace && i % 2 == 1;
    Output out;
    if (it.traced) {
      it.counts = counted([&] {
        const Span root(&tracer, "iteration");
        it.root = tracer.current();
        out = w->run(&tracer, nullptr);
      });
      const SpanRec& r = tracer.spans()[static_cast<std::size_t>(it.root)];
      it.wall = r.end - r.start;
      last_probe = -1;
    } else {
      if (last_probe < 0) last_probe = host.sample();
      it.probes.push_back(last_probe);
      const double t0 = now_s();
      out = w->run(nullptr, &host);
      it.wall = now_s() - t0;
      it.probes.insert(it.probes.end(), out.probe_s.begin(),
                       out.probe_s.end());
      last_probe = host.sample();
      it.probes.push_back(last_probe);
      it.parts = out.part_s.empty() ? std::vector<double>{it.wall} : out.part_s;
      it.wall = 0;  // without the probes between parts
      for (double p : it.parts) it.wall += p;
    }
    it.facts = out.facts;
    check(out, it.traced);
    iters.push_back(std::move(it));
  }

  // Exact counts must repeat on every traced iteration (same inputs).
  const Iteration* first_traced = nullptr;
  for (const Iteration& it : iters) {
    if (!it.traced) continue;
    if (!first_traced)
      first_traced = &it;
    else if (it.counts != first_traced->counts)
      failures.push_back("traced iteration counts differ from the first");
  }

  std::vector<Phase> phases;
  if (trace) phases = w->extras(tracer);

  std::ostringstream js;
  js << "{\"workload\":" << jstr(workload) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failures.size() << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    js << (i ? "," : "") << jstr(failures[i]);
  js << "],\"setup_s\":" << jlist(setup_s) << ",\"host_sink\":" << host.sink()
     << ",\"peak_rss_kb\":" << peak_rss_kb() << ",\"build\":{\"compiler\":"
     << jstr(__VERSION__) << ",\"build_type\":" << jstr(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << jstr(PERFBENCH_CXX_FLAGS) << "},\"iterations\":[";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    js << (i ? "," : "") << "{\"traced\":" << (it.traced ? 1 : 0)
       << ",\"wall\":" << jnum(it.wall) << ",\"root\":" << it.root
       << ",\"counts\":" << jmap(it.counts) << ",\"facts\":" << jmap(it.facts)
       << ",\"parts\":" << jlist(it.parts) << ",\"probes\":"
       << jlist(it.probes) << "}";
  }
  js << "],\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i)
    js << (i ? "," : "") << "{\"name\":" << jstr(phases[i].name)
       << ",\"counts\":" << jmap(phases[i].counts) << "}";
  js << "],\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    js << (i ? "," : "") << '[' << jstr(spans[i].name) << ','
       << spans[i].parent << ',' << jnum(spans[i].start) << ','
       << jnum(spans[i].end) << ']';
  js << "]}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_measure: " << e.what() << "\n";
    return 1;
  }
}
