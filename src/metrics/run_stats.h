// asyncmac/metrics/run_stats.h
//
// Aggregated measurements of one simulation run. Stability (the paper's
// central property) is judged on *packet cost* — Def. 1 measures the
// adversary's injections in units of the slot time that will eventually
// carry each packet — so the collector tracks queue occupancy both in
// packets and in cost ticks.
#pragma once

#include <cstdint>
#include <vector>

#include "util/histogram.h"
#include "util/types.h"

namespace asyncmac::metrics {

struct StationStats {
  std::uint64_t slots = 0;             ///< slots executed
  std::uint64_t transmit_slots = 0;    ///< slots spent transmitting
  std::uint64_t injected = 0;          ///< packets injected here
  std::uint64_t delivered = 0;         ///< packets delivered from here
  std::uint64_t queued = 0;            ///< current queue length
  Tick queued_cost = 0;                ///< current queue cost
  std::uint64_t max_queued = 0;        ///< high-water mark, packets
  Tick max_queued_cost = 0;            ///< high-water mark, cost

  bool operator==(const StationStats&) const = default;
};

struct RunStats {
  // Packets.
  std::uint64_t injected_packets = 0;
  Tick injected_cost = 0;   ///< declared (Def. 1) cost at injection
  std::uint64_t delivered_packets = 0;
  Tick delivered_cost = 0;  ///< declared cost of delivered packets
  Tick realized_cost = 0;   ///< actual duration of the delivering slots

  // System-wide queue occupancy (current and high-water marks).
  std::uint64_t queued_packets = 0;
  Tick queued_cost = 0;
  std::uint64_t max_queued_packets = 0;
  Tick max_queued_cost = 0;

  // Channel usage.
  std::uint64_t total_slots = 0;
  std::uint64_t listen_slots = 0;
  std::uint64_t transmit_slots = 0;
  std::uint64_t control_slots = 0;

  // Delivery latency (injection -> end of delivering slot), in ticks.
  util::Histogram latency;

  std::vector<StationStats> station;  ///< indexed by StationId - 1

  bool operator==(const RunStats&) const = default;
};

}  // namespace asyncmac::metrics
