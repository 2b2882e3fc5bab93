// asyncmac/analysis/run_spec.h
//
// The one declarative description of a simulator run, and the one place
// engines are built from it. A RunSpec fixes what the paper's model
// leaves free — protocol, n, the asynchrony bound R, the slot-length
// adversary and Def. 1's leaky-bucket injection adversary (rate rho,
// burst b) — plus the engine seed, the channel variant, the energy model
// and the recording and pacing flags.
//
// materials() is the only code that turns a RunSpec into an EngineConfig,
// protocol instances, a slot policy and an injector. Single runs, --msr,
// checkpoint resume, grid cells, fuzz scenarios (verify::Scenario is a
// RunSpec plus its case seed) and the live daemon all build through it,
// so a new run knob is a RunSpec field, its line in the field list of
// run_spec.cpp and its line in materials().
//
// save_run_spec/load_run_spec is the RunSpec section of kEngineRun
// checkpoint files (docs/CHECKPOINT.md); its layout is pinned by
// snapshot::kFormatVersion.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "adversary/injectors.h"
#include "channel/transmission.h"
#include "energy/model.h"
#include "sim/engine.h"
#include "snapshot/state.h"
#include "util/types.h"

namespace asyncmac::analysis {

struct RunSpec {
  std::string protocol = "ao-arrow";  ///< registry name (analysis/registry.h)
  std::uint32_t n = 4;
  std::uint32_t bound_r = 2;
  std::string slot_policy = "perstation";  ///< adversary policy name
  bool has_injector = true;
  adversary::InjectorSpec injector;
  std::uint64_t seed = 1;            ///< engine + slot-policy seed
  Tick horizon_units = 100000;       ///< intended run length (time units)
  bool keep_channel_history = false;
  bool record_trace = false;
  bool record_deliveries = false;
  bool allow_control = true;
  std::uint64_t prune_interval = 4096;
  /// Autosave cadence in slot-end events (0 = off). Not an engine knob:
  /// snapshot::AutoSaver::run saves at its multiples.
  std::uint64_t checkpoint_interval = 0;
  /// k-restrained channel (k = 0: unrestrained).
  channel::RestrainedSpec restrained;
  /// Per-station energy accounting (observation-only).
  energy::EnergyModel energy;

  bool operator==(const RunSpec&) const = default;
};

/// The field lists of the k-restrained channel spec and the energy model,
/// shared by the RunSpec section and the grid-spec encoding
/// (analysis/grid.h), and their codecs.
template <typename S, typename Spec>
void restrained_fields(S& s, Spec& spec) {
  field(s, spec.k);
  field(s, spec.jam);
}
template <typename S, typename Model>
void energy_model_fields(S& s, Model& model) {
  field(s, model.enabled);
  field(s, model.cost_transmit);
  field(s, model.cost_listen);
  field(s, model.cost_sleep);
}
void save_restrained(snapshot::Writer& w, const channel::RestrainedSpec& spec);
channel::RestrainedSpec load_restrained(snapshot::Reader& r);
void save_energy_model(snapshot::Writer& w, const energy::EnergyModel& model);
energy::EnergyModel load_energy_model(snapshot::Reader& r);

void save_run_spec(snapshot::Writer& w, const RunSpec& spec);
RunSpec load_run_spec(snapshot::Reader& r);

/// True when no component of the run draws from a seed: the protocol's
/// automaton never calls ctx.rng() (protocol_draws_rng), the slot policy
/// draws nothing from `seed` (adversary::slot_policy_draws_seed) and the
/// injector nothing from injector.seed (adversary::injector_draws_seed).
/// Seed replicas of such a spec — equal up to seed and injector.seed —
/// then give identical stats, channel stats, traces and delivery logs
/// (not identical Engine::save_state bytes: every station's RNG is saved,
/// drawn or not). This is the only place those declarations combine;
/// grids use it to compute each distinct run once (analysis/grid.h).
/// Throws std::invalid_argument on an unknown protocol name.
bool seed_invariant(const RunSpec& spec);

/// The engine materials the spec denotes. `engine_seed` (0 = none)
/// replaces spec.seed in the engine configuration only: the slot policy
/// still draws from spec.seed, so the probes of one MSR estimate share the
/// schedule. Throws std::invalid_argument on unknown
/// protocol/policy/injector names or n, R < 1, and on a protocol that
/// needs synchronous slots (protocol_needs_synchronous_slots) unless
/// n = 1, R = 1 or every station's fixed_length is one nonzero value.
sim::EngineMaterials materials(const RunSpec& spec,
                               std::uint64_t engine_seed = 0);

/// A scalar Engine over materials(spec, engine_seed). To autosave, run it
/// through snapshot::AutoSaver::run.
std::unique_ptr<sim::Engine> build_engine(const RunSpec& spec,
                                          std::uint64_t engine_seed = 0);

}  // namespace asyncmac::analysis
