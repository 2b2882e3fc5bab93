// bench/harness.h
//
// Shared run and reporting helpers for the reproduction binaries. Each
// bench binary regenerates one of the paper's artifacts (Table I, a
// theorem's sweep, or a figure) as an ASCII table plus, for most, a CSV
// file, and exits 1 when one of its printed verdicts contradicts the
// paper.
//
// Every engine comes from an analysis::RunSpec through
// analysis::build_engine() or analysis::materials(). A bench that needs
// what a RunSpec cannot say (ablated protocol constants, the SST message
// script) replaces m.protocols or m.injection after materials().
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "analysis/run_spec.h"
#include "core/abs.h"
#include "core/adaptive_abs.h"
#include "core/bounds.h"
#include "sim/engine.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace asyncmac::bench {

inline constexpr Tick U = kTicksPerUnit;

/// Opt-in telemetry for the bench binaries: exporting to the JSONL path
/// named by ASYNCMAC_TELEMETRY (if set) the first time any harness run
/// executes. Bench binaries take no flags, so the environment is the
/// switch.
inline void maybe_init_telemetry() {
  static const bool done = [] {
    if (const char* path = std::getenv("ASYNCMAC_TELEMETRY");
        path && *path) {
      telemetry::enable_to_file(path);
      telemetry::emit("bench.telemetry_enabled", {{"path", std::string(path)}});
    }
    return true;
  }();
  (void)done;
}

/// Printed verdicts that contradict the paper. A bench counts each one
/// (directly or through verdict()) and main() returns exit_status(), so
/// a broken claim fails the binary.
inline int failures = 0;

inline int exit_status() { return failures == 0 ? 0 : 1; }

/// `pass` when ok; otherwise counts a failure and returns `fail`.
inline const char* verdict(bool ok, const char* pass, const char* fail) {
  if (!ok) ++failures;
  return ok ? pass : fail;
}

/// The packet-transmission (PT) workload: `protocol` on n stations under
/// bound R, each station's slots fixed at 1 + (id-1) mod R units (unit
/// slots when `synchronous`), fed by a round-robin leaky-bucket injector
/// at rate rho with burst b, for `horizon` ticks.
inline analysis::RunSpec pt_spec(const std::string& protocol, std::uint32_t n,
                                 std::uint32_t R, util::Ratio rho, Tick burst,
                                 Tick horizon, bool synchronous = false) {
  analysis::RunSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.bound_r = R;
  spec.slot_policy = synchronous ? "sync" : "perstation";
  spec.injector.rho = rho;
  spec.injector.burst_ticks = burst;
  spec.horizon_units = horizon / U;
  return spec;
}

/// The single-successful-transmission (SST) instance: `protocol` on n
/// stations under bound R and `slot_policy`. run_sst supplies the
/// injections (one message per station at time 0).
inline analysis::RunSpec sst_spec(const std::string& protocol,
                                  std::uint32_t n, std::uint32_t R,
                                  const std::string& slot_policy =
                                      "perstation") {
  analysis::RunSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.bound_r = R;
  spec.slot_policy = slot_policy;
  spec.has_injector = false;
  return spec;
}

/// The scalar Engine over (possibly edited) materials() output.
inline std::unique_ptr<sim::Engine> engine(sim::EngineMaterials m) {
  return std::make_unique<sim::Engine>(
      std::move(m.cfg), std::move(m.protocols), std::move(m.slot_policy),
      std::move(m.injection));
}

/// Outcome of a packet-transmission (PT) stability run.
struct PtResult {
  double max_queue_cost_units = 0;  ///< high-water total queue cost
  double final_queue_cost_units = 0;
  std::uint64_t delivered = 0;
  std::uint64_t injected = 0;
  std::uint64_t collisions = 0;
  std::uint64_t control_msgs = 0;
  double delivered_fraction = 0;
  double wasted_fraction = 0;  ///< Def. 2: time with no successful packet tx
};

inline PtResult pt_result(const sim::Engine& e) {
  PtResult out;
  const auto& s = e.stats();
  out.max_queue_cost_units = to_units(s.max_queued_cost);
  out.final_queue_cost_units = to_units(s.queued_cost);
  out.delivered = s.delivered_packets;
  out.injected = s.injected_packets;
  out.collisions = e.channel_stats().collided;
  out.control_msgs = e.channel_stats().control_transmissions;
  out.delivered_fraction =
      s.injected_packets
          ? static_cast<double>(s.delivered_packets) /
                static_cast<double>(s.injected_packets)
          : 1.0;
  out.wasted_fraction =
      1.0 - to_units(e.channel_stats().successful_packet_time) /
                to_units(e.now());
  return out;
}

/// Runs `spec` for its horizon.
inline PtResult run_pt(const analysis::RunSpec& spec) {
  maybe_init_telemetry();
  static auto& pt_runs =
      telemetry::Registry::global().counter("bench.pt_runs");
  static auto& pt_timer =
      telemetry::Registry::global().timer("bench.pt_run_ns");
  const telemetry::ScopeTimer scope(pt_timer);
  pt_runs.add();
  const auto e = analysis::build_engine(spec);
  e->run(sim::until(spec.horizon_units * U));
  return pt_result(*e);
}

/// Replicate a seed-parameterized run across `seeds` derived seeds on
/// `jobs` workers (0 = all cores, 1 = serial); results come back in seed
/// order regardless of jobs. `fn` must be a pure function of its seed —
/// each invocation builds and runs its own Engine.
template <typename F>
auto replicate_seeds(int seeds, std::uint64_t base_seed, unsigned jobs,
                     F&& fn) {
  maybe_init_telemetry();
  using R = decltype(fn(std::uint64_t{}));
  std::vector<R> out(static_cast<std::size_t>(seeds));
  util::parallel_for(jobs, out.size(), [&](std::size_t i) {
    out[i] = fn(base_seed + i * 1000003ULL);
  });
  return out;
}

/// One SST message per participating station at time 0.
inline std::unique_ptr<sim::InjectionPolicy> messages(std::uint32_t n) {
  std::vector<sim::Injection> script;
  for (StationId s = 1; s <= n; ++s) script.push_back({0, s, U});
  return std::make_unique<adversary::ScriptedInjector>(std::move(script));
}

/// Runs `e` until its first successful transmission or `max_time`, then
/// `drain` ticks more so the winner hears its own ack. Returns the time
/// the first run stopped at.
inline Tick run_to_first_success(sim::Engine& e, Tick max_time, Tick drain) {
  sim::StopCondition stop;
  stop.max_time = max_time;
  stop.predicate = [](const sim::Engine& eng) {
    return eng.channel_stats().successful >= 1;
  };
  e.run(stop);
  const Tick stopped = e.now();
  e.run(sim::until(stopped + drain));
  return stopped;
}

/// Outcome of an SST run (ABS, an ablated ABS, or AdaptiveAbs).
struct SstResult {
  bool solved = false;
  std::uint32_t winners = 0;
  std::uint32_t dangling = 0;   ///< ABS stations still active at the end
  std::uint64_t max_slots = 0;  ///< max slots any participant spent
  std::uint32_t max_epochs = 0;       ///< AdaptiveAbs: most epochs run
  std::uint32_t winner_estimate = 0;  ///< AdaptiveAbs: winner's R estimate
  double solved_at_units = 0;
};

/// SST on the stations of `m`, whose injector is replaced by one message
/// per station at time 0. Stops at the first success or after `budget`
/// times the Theorem-1 slot bound in R-unit slots, then drains `drain`
/// ticks.
inline SstResult run_sst(sim::EngineMaterials m, std::uint64_t budget,
                         Tick drain = 0) {
  const std::uint32_t n = m.cfg.n;
  const std::uint32_t R = m.cfg.bound_r;
  m.injection = messages(n);
  const auto e = engine(std::move(m));
  const Tick stopped = run_to_first_success(
      *e,
      static_cast<Tick>(budget * core::abs_slot_bound(n, R)) *
          static_cast<Tick>(R) * U,
      drain);

  SstResult out;
  out.solved = e->channel_stats().successful >= 1;
  out.solved_at_units = to_units(stopped);
  for (StationId id = 1; id <= n; ++id) {
    const sim::Protocol& p = e->protocol(id);
    if (const auto* a = dynamic_cast<const core::AdaptiveAbsProtocol*>(&p)) {
      out.max_slots = std::max(out.max_slots, a->total_slots());
      out.max_epochs = std::max(out.max_epochs, a->epochs());
      if (a->status() == core::AdaptiveAbsProtocol::Status::kWon) {
        ++out.winners;
        out.winner_estimate = a->r_estimate();
      }
      continue;
    }
    const auto* abs = dynamic_cast<const core::AbsProtocol&>(p).automaton();
    if (!abs) continue;
    out.max_slots = std::max(out.max_slots, abs->slots());
    if (abs->outcome() == core::AbsAutomaton::Outcome::kWon) ++out.winners;
    if (abs->outcome() == core::AbsAutomaton::Outcome::kActive)
      ++out.dangling;
  }
  return out;
}

}  // namespace asyncmac::bench
