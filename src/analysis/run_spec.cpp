#include "analysis/run_spec.h"

#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "util/check.h"

namespace asyncmac::analysis {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

template <typename S, typename Spec>
void injector_spec_fields(S& s, Spec& spec) {
  field(s, spec.kind);
  std::int64_t num = spec.rho.num;
  std::int64_t den = spec.rho.den;
  field(s, num);
  field(s, den);
  if constexpr (snapshot::kLoading<S>) {
    if (num < 0 || den <= 0)
      throw SnapshotError(ErrorKind::kCorrupt, "invalid injection rate ratio");
    spec.rho = util::Ratio(num, den);
  }
  field(s, spec.burst_ticks);
  field(s, spec.pattern);
  field(s, spec.single_target);
  field(s, spec.period_ticks);
  field(s, spec.drain_a);
  field(s, spec.drain_b);
  field(s, spec.seed);
}

template <typename S, typename Spec>
void run_spec_fields(S& s, Spec& spec) {
  field(s, spec.protocol);
  field(s, spec.n);
  field(s, spec.bound_r);
  field(s, spec.slot_policy);
  field(s, spec.has_injector);
  injector_spec_fields(s, spec.injector);
  field(s, spec.seed);
  field(s, spec.horizon_units);
  field(s, spec.keep_channel_history);
  field(s, spec.record_trace);
  field(s, spec.record_deliveries);
  field(s, spec.allow_control);
  field(s, spec.prune_interval);
  field(s, spec.checkpoint_interval);
  restrained_fields(s, spec.restrained);
  energy_model_fields(s, spec.energy);
  if constexpr (snapshot::kLoading<S>)
    if (spec.n < 1 || spec.bound_r < 1 || spec.prune_interval < 1)
      throw SnapshotError(ErrorKind::kCorrupt,
                          "run spec violates engine invariants");
}

/// True when every station's slot boundaries coincide: one station,
/// R = 1, or one fixed length for all stations (sync, max).
bool boundaries_coincide(const RunSpec& spec, const sim::SlotPolicy& policy) {
  if (spec.n == 1 || spec.bound_r == 1) return true;
  const Tick length = policy.fixed_length(1);
  for (StationId s = 2; s <= spec.n; ++s)
    if (policy.fixed_length(s) != length) return false;
  return length != 0;
}

}  // namespace

void save_restrained(snapshot::Writer& w,
                     const channel::RestrainedSpec& spec) {
  restrained_fields(w, spec);
}

channel::RestrainedSpec load_restrained(snapshot::Reader& r) {
  channel::RestrainedSpec spec;
  restrained_fields(r, spec);
  return spec;
}

void save_energy_model(snapshot::Writer& w,
                       const energy::EnergyModel& model) {
  energy_model_fields(w, model);
}

energy::EnergyModel load_energy_model(snapshot::Reader& r) {
  energy::EnergyModel model;
  energy_model_fields(r, model);
  return model;
}

void save_run_spec(snapshot::Writer& w, const RunSpec& spec) {
  run_spec_fields(w, spec);
}

RunSpec load_run_spec(snapshot::Reader& r) {
  RunSpec spec;
  run_spec_fields(r, spec);
  return spec;
}

bool seed_invariant(const RunSpec& spec) {
  return !protocol_draws_rng(spec.protocol) &&
         !adversary::slot_policy_draws_seed(spec.slot_policy) &&
         !(spec.has_injector && adversary::injector_draws_seed(spec.injector));
}

sim::EngineMaterials materials(const RunSpec& spec,
                               std::uint64_t engine_seed) {
  AM_REQUIRE(spec.n >= 1, "a run needs at least one station");
  AM_REQUIRE(spec.bound_r >= 1, "a run needs R >= 1");
  sim::EngineMaterials m;
  m.cfg.n = spec.n;
  m.cfg.bound_r = spec.bound_r;
  m.cfg.seed = engine_seed != 0 ? engine_seed : spec.seed;
  m.cfg.keep_channel_history = spec.keep_channel_history;
  m.cfg.record_trace = spec.record_trace;
  m.cfg.record_deliveries = spec.record_deliveries;
  m.cfg.allow_control = spec.allow_control;
  m.cfg.prune_interval = spec.prune_interval;
  m.cfg.restrained = spec.restrained;
  m.cfg.energy = spec.energy;
  m.protocols = make_protocols(spec.protocol, spec.n);
  m.slot_policy = adversary::make_slot_policy(spec.slot_policy, spec.n,
                                              spec.bound_r, spec.seed);
  AM_REQUIRE(!protocol_needs_synchronous_slots(spec.protocol) ||
                 boundaries_coincide(spec, *m.slot_policy),
             spec.protocol + " needs synchronous slots: run it at n = 1, "
                             "R = 1, or under slot policy sync or max");
  if (spec.has_injector) m.injection = adversary::make_injector(spec.injector);
  return m;
}

std::unique_ptr<sim::Engine> build_engine(const RunSpec& spec,
                                          std::uint64_t engine_seed) {
  sim::EngineMaterials m = materials(spec, engine_seed);
  return std::make_unique<sim::Engine>(std::move(m.cfg), std::move(m.protocols),
                                       std::move(m.slot_policy),
                                       std::move(m.injection));
}

}  // namespace asyncmac::analysis
