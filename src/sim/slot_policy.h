// asyncmac/sim/slot_policy.h
//
// The adversarial scheduler of slot lengths (Section II): each station's
// partition of time into slots is chosen online by an adversary, subject
// only to every length lying in [1, R] time units. Concrete policies live
// in src/adversary/; this interface is all the engine needs.
#pragma once

#include <string>

#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::sim {

class SlotPolicy {
 public:
  virtual ~SlotPolicy() = default;

  /// Length in ticks of station `station`'s slot with 1-based index
  /// `index`, which begins at absolute tick `begin` and in which the
  /// station will perform `action` (the online adversary observes
  /// everything, including the action committed for the upcoming slot).
  /// Must return a value in [kTicksPerUnit, R * kTicksPerUnit].
  virtual Tick slot_length(StationId station, SlotIndex index, Tick begin,
                           SlotAction action) = 0;

  virtual std::string name() const = 0;

  /// If this policy always gives `station` the same slot length, return it
  /// (in ticks); otherwise return 0. A nonzero value is binding:
  /// slot_length returns exactly that value for every slot of the station
  /// and changes no policy state, so the engine's dense path (sim/engine.h)
  /// skips the calls. Injection adversaries use it to charge exact Def.-1
  /// costs.
  virtual Tick fixed_length(StationId station) const {
    (void)station;
    return 0;
  }

  /// Checkpoint/resume: serialize mutable scheduler state. The defaults
  /// are correct only for stateless (configuration-only) policies;
  /// stateful ones (e.g. the seeded random policy) must override both.
  virtual void save_state(snapshot::Writer& w) const { (void)w; }
  virtual void load_state(snapshot::Reader& r) { (void)r; }
};

}  // namespace asyncmac::sim
