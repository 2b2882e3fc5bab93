// tests/engine_golden_cases.h
//
// The pinned engine-golden corpus: a fixed list of end-to-end engine
// configurations whose serialized trace + RunStats JSON (<name>.trace)
// and pruned-run snapshot bytes (<name>.state) are committed under
// tests/golden/engine/ and must be reproduced byte-for-byte by every
// future build. The first seven cases were generated with the pre-PR-4
// event loop (std::priority_queue scheduler, per-event injection
// polling), so matching them proves the indexed n-event scheduler, the
// injection skip-ahead and the ledger fast paths are
// semantics-preserving — the "old vs new loop" identity test, pinned as
// data. The cases after them were generated before the snapshot codec
// became one field list per section: one per remaining registry
// protocol, one on a k-restrained channel and one with the energy model
// on, so every automaton's, the restrained window's and the energy
// meter's snapshot layout is pinned as data too.
//
// Shared by tools/golden_engine_gen (writes the files; run it only on a
// conscious semantics change, with a DESIGN.md note) and
// tests/test_engine_golden.cpp (verifies them).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/io.h"
#include "trace/serialize.h"

namespace asyncmac::testing {

struct EngineGoldenCase {
  std::string name;          ///< file stem under tests/golden/engine/
  std::string protocol;      ///< analysis registry name
  std::uint32_t n = 2;
  std::uint32_t bound_r = 1;
  std::string slot_policy;   ///< adversary::make_slot_policy name
  /// Injector kind: an adversary::injector_kinds() name, or "none" for a
  /// workload without packet arrivals.
  adversary::InjectorSpec injector;
  bool no_injector = false;
  Tick horizon_units = 100;
  std::uint64_t seed = 1;
  channel::RestrainedSpec restrained;  ///< off unless k is set
  energy::EnergyModel energy;
};

/// The corpus. Chosen to cover every hot-loop path the PR-4 overhaul
/// touches: synchronous all-ties schedules (indexed-heap tie-breaking),
/// asynchronous R=4 mixes, saturating / bursty-with-long-gaps /
/// drain-chasing / maxqueue injectors (every next_arrival_hint
/// implementation), injection-free listen-heavy runs (empty-window
/// feedback fast path) and random/stretch-tx slot policies.
inline std::vector<EngineGoldenCase> engine_golden_cases() {
  std::vector<EngineGoldenCase> cases;
  {
    EngineGoldenCase c;
    c.name = "ca_arrow_n4_r4_perstation_saturating";
    c.protocol = "ca-arrow";
    c.n = 4;
    c.bound_r = 4;
    c.slot_policy = "perstation";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 8 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 300;
    c.seed = 11;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "ao_arrow_n3_r2_random_bursty_gap";
    c.protocol = "ao-arrow";
    c.n = 3;
    c.bound_r = 2;
    c.slot_policy = "random";
    c.injector.kind = "bursty";
    c.injector.rho = util::Ratio(1, 4);
    c.injector.burst_ticks = 16 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.injector.period_ticks = 40 * kTicksPerUnit;  // long silent gaps
    c.horizon_units = 400;
    c.seed = 23;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "beb_n4_r1_sync_saturating_ties";
    c.protocol = "beb";
    c.n = 4;
    c.bound_r = 1;
    c.slot_policy = "sync";  // every slot end ties across all stations
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(3, 5);
    c.injector.burst_ticks = 6 * kTicksPerUnit;
    c.injector.pattern = "random";
    c.injector.seed = 7;
    c.horizon_units = 250;
    c.seed = 31;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "rrw_n2_r1_sync_drain_chasing";
    c.protocol = "rrw";
    c.n = 2;
    c.bound_r = 1;
    c.slot_policy = "sync";
    c.injector.kind = "drain-chasing";
    c.injector.rho = util::Ratio(9, 10);
    c.injector.burst_ticks = 4 * kTicksPerUnit;
    c.injector.drain_a = 1;
    c.injector.drain_b = 2;
    c.horizon_units = 300;
    c.seed = 5;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "aloha_n5_r3_cyclic_maxqueue";
    c.protocol = "aloha";
    c.n = 5;
    c.bound_r = 3;
    c.slot_policy = "cyclic";
    c.injector.kind = "maxqueue";
    c.injector.rho = util::Ratio(3, 10);
    c.injector.burst_ticks = 9 * kTicksPerUnit;
    c.horizon_units = 200;
    c.seed = 77;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "ca_arrow_n8_r2_stretchtx_saturating_single";
    c.protocol = "ca-arrow";
    c.n = 8;
    c.bound_r = 2;
    c.slot_policy = "stretch-tx";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(7, 10);
    c.injector.burst_ticks = 10 * kTicksPerUnit;
    c.injector.pattern = "single";
    c.injector.single_target = 3;
    c.horizon_units = 250;
    c.seed = 42;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "ao_arrow_n6_r4_perstation_none";
    c.protocol = "ao-arrow";
    c.n = 6;
    c.bound_r = 4;
    c.slot_policy = "perstation";
    c.no_injector = true;  // empty-channel feedback fast path
    c.horizon_units = 300;
    c.seed = 3;
    cases.push_back(c);
  }
  // Every other registry protocol once: the asynchronous-capable ones at
  // R >= 2, the two that need synchronous slots at R = 1.
  {
    EngineGoldenCase c;
    c.name = "abs_n3_r2_perstation_saturating";
    c.protocol = "abs";
    c.n = 3;
    c.bound_r = 2;
    c.slot_policy = "perstation";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 4 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 200;
    c.seed = 13;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "adaptive_abs_n4_r3_max_bursty";
    c.protocol = "adaptive-abs";
    c.n = 4;
    c.bound_r = 3;
    c.slot_policy = "max";
    c.injector.kind = "bursty";
    c.injector.rho = util::Ratio(1, 3);
    c.injector.burst_ticks = 6 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.injector.period_ticks = 30 * kTicksPerUnit;
    c.horizon_units = 300;
    c.seed = 17;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "csma_lbt_n4_r2_perstation_saturating_random";
    c.protocol = "csma-lbt";
    c.n = 4;
    c.bound_r = 2;
    c.slot_policy = "perstation";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(2, 5);
    c.injector.burst_ticks = 6 * kTicksPerUnit;
    c.injector.pattern = "random";
    c.injector.seed = 9;
    c.horizon_units = 250;
    c.seed = 19;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "listen_n3_r3_max_saturating";
    c.protocol = "listen";
    c.n = 3;
    c.bound_r = 3;
    c.slot_policy = "max";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 4 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 150;
    c.seed = 29;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "mbtf_n4_r2_perstation_saturating";
    c.protocol = "mbtf";
    c.n = 4;
    c.bound_r = 2;
    c.slot_policy = "perstation";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 8 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 300;
    c.seed = 37;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "silence_tdma_n3_r2_max_maxqueue";
    c.protocol = "silence-tdma";
    c.n = 3;
    c.bound_r = 2;
    c.slot_policy = "max";
    c.injector.kind = "maxqueue";
    c.injector.rho = util::Ratio(3, 10);
    c.injector.burst_ticks = 6 * kTicksPerUnit;
    c.horizon_units = 250;
    c.seed = 41;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "sync_binary_le_n4_r1_sync_saturating";
    c.protocol = "sync-binary-le";
    c.n = 4;
    c.bound_r = 1;
    c.slot_policy = "sync";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 4 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 200;
    c.seed = 43;
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "tree_resolution_n5_r1_sync_saturating";
    c.protocol = "tree-resolution";
    c.n = 5;
    c.bound_r = 1;
    c.slot_policy = "sync";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(2, 5);
    c.injector.burst_ticks = 5 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 200;
    c.seed = 47;
    cases.push_back(c);
  }
  // The channel and accounting variants: a 1-restrained jamming channel
  // under a colliding protocol, and the energy meter's tail.
  {
    EngineGoldenCase c;
    c.name = "aloha_n4_r2_perstation_restrained_jam";
    c.protocol = "aloha";
    c.n = 4;
    c.bound_r = 2;
    c.slot_policy = "perstation";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(3, 5);
    c.injector.burst_ticks = 6 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 250;
    c.seed = 53;
    c.restrained = {.k = 1, .jam = true};
    cases.push_back(c);
  }
  {
    EngineGoldenCase c;
    c.name = "beb_n3_r2_max_energy";
    c.protocol = "beb";
    c.n = 3;
    c.bound_r = 2;
    c.slot_policy = "max";
    c.injector.kind = "saturating";
    c.injector.rho = util::Ratio(1, 2);
    c.injector.burst_ticks = 4 * kTicksPerUnit;
    c.injector.pattern = "roundrobin";
    c.horizon_units = 250;
    c.seed = 59;
    c.energy = {.enabled = true, .cost_transmit = 3, .cost_listen = 2,
                .cost_sleep = 1};
    cases.push_back(c);
  }
  return cases;
}

/// Run a corpus case and render the golden artifact: serialized trace
/// followed by the RunStats + channel-stats JSON, so both the observable
/// schedule and the full statistics are pinned byte-for-byte.
inline std::string run_engine_golden_case(const EngineGoldenCase& c) {
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
      c.no_injector ? nullptr : adversary::make_injector(c.injector));
  engine.run(sim::until(c.horizon_units * kTicksPerUnit));
  std::string out =
      trace::serialize_trace({c.n, c.bound_r}, engine.trace().slots());
  out += metrics::to_json(engine.stats(), &engine.channel_stats());
  out += "\n";
  return out;
}

/// A corpus case's engine with a ledger prune every 16 slot-end events
/// and the full channel history kept, not yet run.
inline std::unique_ptr<sim::Engine> golden_state_engine(
    const EngineGoldenCase& c) {
  sim::EngineConfig cfg;
  cfg.n = c.n;
  cfg.bound_r = c.bound_r;
  cfg.seed = c.seed;
  cfg.keep_channel_history = true;
  cfg.prune_interval = 16;
  cfg.restrained = c.restrained;
  cfg.energy = c.energy;
  return std::make_unique<sim::Engine>(
      cfg, analysis::make_protocols(c.protocol, c.n),
      adversary::make_slot_policy(c.slot_policy, c.n, c.bound_r, c.seed),
      c.no_injector ? nullptr : adversary::make_injector(c.injector));
}

/// Run golden_state_engine(c) to the horizon and return Engine::save_state's
/// bytes (the golden <name>.state file). The short prune interval makes
/// the ledger window prune and archive dozens of times per case
/// (compacting its dead prefix in most cases), so the file pins the
/// snapshot layout of the window, its archive and the channel stats; the
/// trace and delivery log are pinned by the .trace files and left out.
inline std::string run_engine_golden_state(const EngineGoldenCase& c) {
  const auto engine = golden_state_engine(c);
  engine->run(sim::until(c.horizon_units * kTicksPerUnit));
  snapshot::Writer w;
  engine->save_state(w);
  const std::vector<std::uint8_t>& bytes = w.buffer();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace asyncmac::testing
