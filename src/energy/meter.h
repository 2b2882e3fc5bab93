// asyncmac/energy/meter.h
//
// SoA per-station energy accumulator. The meter stores exact slot
// *counts* per billing class (transmit / listen / sleep) in flat
// per-station arrays; charges are the linear combination with an
// EnergyModel's costs, computed on demand in exact u64 arithmetic. The
// split keeps the hot-path increment a single array bump and lets one run
// be re-priced under a different cost vector without re-simulating.
//
// Stations are 1-based (engine convention); index 0 is unused storage.
// Serialization (save_state/load_state) rides at the tail of the engine
// snapshot payloads, gated by the model's enabled flag — see
// sim/engine.cpp and docs/ENERGY.md.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/model.h"
#include "snapshot/fwd.h"
#include "util/check.h"
#include "util/types.h"

namespace asyncmac::energy {

class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(std::uint32_t n) { reset(n); }

  void reset(std::uint32_t n) {
    n_ = n;
    tx_slots_.assign(n + 1, 0);
    listen_slots_.assign(n + 1, 0);
    sleep_slots_.assign(n + 1, 0);
  }

  std::uint32_t n() const noexcept { return n_; }

  /// Bill `count` transmitting slots to `station`.
  void add_transmit(StationId station, std::uint64_t count = 1) {
    AM_CHECK(station >= 1 && station <= n_);
    tx_slots_[station] += count;
  }

  /// Bill `count` listening slots to `station`: sleep-priced when the
  /// station's queue was empty at the slot end, listen-priced otherwise.
  void add_idle(StationId station, bool queue_empty, std::uint64_t count = 1) {
    AM_CHECK(station >= 1 && station <= n_);
    if (queue_empty)
      sleep_slots_[station] += count;
    else
      listen_slots_[station] += count;
  }

  std::uint64_t tx_slots(StationId station) const {
    AM_CHECK(station >= 1 && station <= n_);
    return tx_slots_[station];
  }
  std::uint64_t listen_slots(StationId station) const {
    AM_CHECK(station >= 1 && station <= n_);
    return listen_slots_[station];
  }
  std::uint64_t sleep_slots(StationId station) const {
    AM_CHECK(station >= 1 && station <= n_);
    return sleep_slots_[station];
  }

  /// Exact charge of one station under `model`'s cost vector.
  std::uint64_t station_charge(const EnergyModel& model,
                               StationId station) const {
    AM_CHECK(station >= 1 && station <= n_);
    return tx_slots_[station] * model.cost_transmit +
           listen_slots_[station] * model.cost_listen +
           sleep_slots_[station] * model.cost_sleep;
  }

  /// Sum of station charges.
  std::uint64_t total_charge(const EnergyModel& model) const {
    std::uint64_t total = 0;
    for (StationId i = 1; i <= n_; ++i) total += station_charge(model, i);
    return total;
  }

  /// Largest single-station charge (0 when n == 0).
  std::uint64_t peak_station_charge(const EnergyModel& model) const {
    std::uint64_t peak = 0;
    for (StationId i = 1; i <= n_; ++i) {
      const std::uint64_t c = station_charge(model, i);
      if (c > peak) peak = c;
    }
    return peak;
  }

  bool operator==(const EnergyMeter& o) const noexcept {
    return n_ == o.n_ && tx_slots_ == o.tx_slots_ &&
           listen_slots_ == o.listen_slots_ && sleep_slots_ == o.sleep_slots_;
  }
  bool operator!=(const EnergyMeter& o) const noexcept {
    return !(*this == o);
  }

  /// Checkpoint/resume: the three count arrays, n-prefixed.
  /// load_state requires the same station count (kMismatch otherwise).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  std::uint32_t n_ = 0;
  std::vector<std::uint64_t> tx_slots_;
  std::vector<std::uint64_t> listen_slots_;
  std::vector<std::uint64_t> sleep_slots_;
};

}  // namespace asyncmac::energy
