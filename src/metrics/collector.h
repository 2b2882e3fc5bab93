// asyncmac/metrics/collector.h
//
// Event sink fed by the simulation engine. Pure accounting — no channel or
// protocol logic lives here, so the numbers it reports are independent of
// the machinery being measured.
#pragma once

#include "metrics/run_stats.h"
#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::metrics {

class Collector {
 public:
  explicit Collector(std::uint32_t n);

  void on_injection(StationId station, Tick cost, Tick now);
  /// `realized` is the actual duration of the slot that delivered the
  /// packet; `declared_cost` and `injected_at` come from the packet.
  void on_delivery(StationId station, Tick declared_cost, Tick injected_at,
                   Tick realized, Tick now);
  /// Defined inline: this is the one collector call on the engine's
  /// general per-event path, and RunStats::total_slots must stay exact
  /// per step (StopCondition::max_total_slots reads it), so that path
  /// cannot batch it like telemetry — it can only make it cheap.
  void on_slot_end(StationId station, SlotAction action) {
    ++stats_.total_slots;
    StationStats& s = stats_.station[station - 1];
    ++s.slots;
    switch (action) {
      case SlotAction::kListen:
        ++stats_.listen_slots;
        break;
      case SlotAction::kTransmitPacket:
        ++stats_.transmit_slots;
        ++s.transmit_slots;
        break;
      case SlotAction::kTransmitControl:
        ++stats_.transmit_slots;
        ++stats_.control_slots;
        ++s.transmit_slots;
        break;
    }
  }

  /// Batched slot accounting for the engine's dense path: numerically
  /// identical to `events` on_slot_end calls of which `listen` were
  /// kListen, `tx_packet` kTransmitPacket and `tx_control`
  /// kTransmitControl (events == listen + tx_packet + tx_control). The
  /// per-station halves arrive separately via on_station_slot_batch. The
  /// dense loop folds these in before run() returns, so RunStats stays
  /// per-step exact as far as any reader (StopCondition, snapshots,
  /// adaptive adversaries) can tell.
  void on_slot_batch(std::uint64_t events, std::uint64_t listen,
                     std::uint64_t tx_packet, std::uint64_t tx_control) {
    stats_.total_slots += events;
    stats_.listen_slots += listen;
    stats_.transmit_slots += tx_packet + tx_control;
    stats_.control_slots += tx_control;
  }
  void on_station_slot_batch(StationId station, std::uint64_t slots,
                             std::uint64_t transmit_slots) {
    StationStats& s = stats_.station[station - 1];
    s.slots += slots;
    s.transmit_slots += transmit_slots;
  }

  const RunStats& stats() const noexcept { return stats_; }

  /// Current total queue cost across all stations (ticks).
  Tick queued_cost() const noexcept { return stats_.queued_cost; }

  /// Checkpoint/resume: serialize/restore the complete RunStats, latency
  /// histogram included. load_state requires the collector to have been
  /// constructed for the same station count (SnapshotError::kMismatch).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  StationStats& st(StationId id);
  RunStats stats_;
};

}  // namespace asyncmac::metrics
