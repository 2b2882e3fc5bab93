#include "analysis/run_spec.h"

#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "util/check.h"

namespace asyncmac::analysis {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

void save_injector_spec(snapshot::Writer& w,
                        const adversary::InjectorSpec& spec) {
  w.str(spec.kind);
  w.i64(spec.rho.num);
  w.i64(spec.rho.den);
  w.i64(spec.burst_ticks);
  w.str(spec.pattern);
  w.u32(spec.single_target);
  w.i64(spec.period_ticks);
  w.u32(spec.drain_a);
  w.u32(spec.drain_b);
  w.u64(spec.seed);
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

adversary::InjectorSpec load_injector_spec(snapshot::Reader& r) {
  adversary::InjectorSpec spec;
  spec.kind = r.str();
  const std::int64_t num = r.i64();
  const std::int64_t den = r.i64();
  if (num < 0 || den <= 0)
    throw SnapshotError(ErrorKind::kCorrupt, "invalid injection rate ratio");
  spec.rho = util::Ratio(num, den);
  spec.burst_ticks = r.i64();
  spec.pattern = r.str();
  spec.single_target = r.u32();
  spec.period_ticks = r.i64();
  spec.drain_a = r.u32();
  spec.drain_b = r.u32();
  spec.seed = r.u64();
  return spec;
}

}  // namespace

void save_restrained(snapshot::Writer& w,
                     const channel::RestrainedSpec& spec) {
  w.u32(spec.k);
  w.boolean(spec.jam);
}

channel::RestrainedSpec load_restrained(snapshot::Reader& r) {
  channel::RestrainedSpec spec;
  spec.k = r.u32();
  spec.jam = r.boolean();
  return spec;
}

void save_energy_model(snapshot::Writer& w,
                       const energy::EnergyModel& model) {
  w.boolean(model.enabled);
  w.u64(model.cost_transmit);
  w.u64(model.cost_listen);
  w.u64(model.cost_sleep);
}

energy::EnergyModel load_energy_model(snapshot::Reader& r) {
  energy::EnergyModel model;
  model.enabled = r.boolean();
  model.cost_transmit = r.u64();
  model.cost_listen = r.u64();
  model.cost_sleep = r.u64();
  return model;
}

void save_run_spec(snapshot::Writer& w, const RunSpec& spec) {
  w.str(spec.protocol);
  w.u32(spec.n);
  w.u32(spec.bound_r);
  w.str(spec.slot_policy);
  w.boolean(spec.has_injector);
  save_injector_spec(w, spec.injector);
  w.u64(spec.seed);
  w.i64(spec.horizon_units);
  w.boolean(spec.keep_channel_history);
  w.boolean(spec.record_trace);
  w.boolean(spec.record_deliveries);
  w.boolean(spec.allow_control);
  w.u64(spec.prune_interval);
  w.u64(spec.checkpoint_interval);
  save_restrained(w, spec.restrained);
  save_energy_model(w, spec.energy);
}

RunSpec load_run_spec(snapshot::Reader& r) {
  RunSpec spec;
  spec.protocol = r.str();
  spec.n = r.u32();
  spec.bound_r = r.u32();
  spec.slot_policy = r.str();
  spec.has_injector = r.boolean();
  spec.injector = load_injector_spec(r);
  spec.seed = r.u64();
  spec.horizon_units = r.i64();
  spec.keep_channel_history = r.boolean();
  spec.record_trace = r.boolean();
  spec.record_deliveries = r.boolean();
  spec.allow_control = r.boolean();
  spec.prune_interval = r.u64();
  spec.checkpoint_interval = r.u64();
  spec.restrained = load_restrained(r);
  spec.energy = load_energy_model(r);
  if (spec.n < 1 || spec.bound_r < 1 || spec.prune_interval < 1)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "run spec violates engine invariants");
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
