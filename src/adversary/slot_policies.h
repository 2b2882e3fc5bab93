// asyncmac/adversary/slot_policies.h
//
// Concrete adversarial schedulers of slot lengths (the "online adversary
// who can make the decision about when to end a slot", Section II). All
// lengths are in ticks and must lie in [1, R] time units; the engine
// enforces the bound, so a policy constructed with parameters outside it
// fails fast.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/slot_policy.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::adversary {

/// Every station, every slot: the same length. scale = 1 gives the fully
/// synchronous channel (R = 1 rows of Table I).
class UniformSlotPolicy final : public sim::SlotPolicy {
 public:
  /// `length_ticks` in [kTicksPerUnit, R * kTicksPerUnit].
  explicit UniformSlotPolicy(Tick length_ticks = kTicksPerUnit);
  Tick slot_length(StationId, SlotIndex, Tick, SlotAction) override {
    return length_;
  }
  Tick fixed_length(StationId) const override { return length_; }
  std::string name() const override;

 private:
  Tick length_;
};

/// Each station has its own constant slot length — the workhorse for
/// stability experiments, because Def.-1 packet costs are then exact, and
/// the setting used by the Theorem-4 construction (lengths X and Y).
class PerStationSlotPolicy final : public sim::SlotPolicy {
 public:
  /// lengths[i] is the slot length (ticks) of station i+1.
  explicit PerStationSlotPolicy(std::vector<Tick> lengths);
  Tick slot_length(StationId s, SlotIndex, Tick, SlotAction) override;
  Tick fixed_length(StationId s) const override;
  std::string name() const override;

 private:
  std::vector<Tick> lengths_;
};

/// Station i's j-th slot takes pattern[(j-1) % pattern.size()] ticks,
/// with an optional per-station phase shift — produces drifting,
/// re-aligning schedules that stress slot-boundary edge cases.
class CyclicSlotPolicy final : public sim::SlotPolicy {
 public:
  CyclicSlotPolicy(std::vector<Tick> pattern, bool shift_per_station = true);
  Tick slot_length(StationId s, SlotIndex j, Tick, SlotAction) override;
  std::string name() const override;

 private:
  std::vector<Tick> pattern_;
  bool shift_per_station_;
};

/// Independent uniform random length in [min, max] ticks per slot, from a
/// seeded deterministic RNG (per-station streams, so one station's draw
/// count does not perturb another's).
class RandomSlotPolicy final : public sim::SlotPolicy {
 public:
  RandomSlotPolicy(std::uint32_t n, Tick min_ticks, Tick max_ticks,
                   std::uint64_t seed);
  Tick slot_length(StationId s, SlotIndex, Tick, SlotAction) override;
  std::string name() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  Tick min_, max_;
  std::vector<util::Rng> rngs_;
};

/// Adversarially stretches exactly the slots in which the station
/// transmits (to length `stretch`), keeping listening slots minimal —
/// maximizes the channel time burned per transmission, the worst case for
/// throughput accounting.
class StretchTransmitsPolicy final : public sim::SlotPolicy {
 public:
  explicit StretchTransmitsPolicy(Tick stretch_ticks);
  Tick slot_length(StationId, SlotIndex, Tick, SlotAction a) override;
  std::string name() const override;

 private:
  Tick stretch_;
};

/// Switches between two underlying policies at a scheduled flip time —
/// an adversary that changes regime mid-run (e.g. synchronous warm-up,
/// then maximal stretching), stressing protocol state that was built
/// under the earlier regime.
class RegimeFlipSlotPolicy final : public sim::SlotPolicy {
 public:
  RegimeFlipSlotPolicy(std::unique_ptr<sim::SlotPolicy> before,
                       std::unique_ptr<sim::SlotPolicy> after,
                       Tick flip_at_ticks);
  Tick slot_length(StationId s, SlotIndex j, Tick begin,
                   SlotAction a) override;
  std::string name() const override;

  /// Recurses into both regimes, so a flip policy over stateful policies
  /// (e.g. random) checkpoints correctly; flip_at_ is construction data.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  std::unique_ptr<sim::SlotPolicy> before_, after_;
  Tick flip_at_;
};

/// Helper: clamp-checked constructor utilities shared by policies.
Tick require_slot_length(Tick ticks);

/// Factory over the named policy families used throughout the tests,
/// benches, CLI and experiment grids:
///   "sync"        all slots 1 unit (the synchronous channel)
///   "max"         all slots R units (uniform worst-case stretch)
///   "perstation"  station i fixed at 1 + (i-1) mod R units
///   "cyclic"      pattern 1..R units per slot, phase-shifted per station
///   "random"      seeded uniform in [1, R] units per slot
///   "stretch-tx"  transmit slots R units, listening slots 1 unit
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<sim::SlotPolicy> make_slot_policy(const std::string& name,
                                                  std::uint32_t n,
                                                  std::uint32_t bound_r,
                                                  std::uint64_t seed = 1);

/// The names make_slot_policy accepts.
std::vector<std::string> slot_policy_names();

/// Seed use, declared beside the factory: true for the families that draw
/// slot lengths from their seed ("random"). Every other family is a fixed
/// function of (n, R, station, slot index, action). Only
/// analysis::seed_invariant combines this with the other components'
/// declarations.
bool slot_policy_draws_seed(const std::string& name);

}  // namespace asyncmac::adversary
