// asyncmac/adversary/mirror.h
//
// The Theorem-2 lower-bound adversary: constructs, online and against ANY
// deterministic SST protocol, a *mirror execution* — one in which every
// listening slot hears silence and every transmitting slot hears busy
// without an acknowledgment — so no participating station ever succeeds.
//
// Construction (Section III-B): proceed in phases of r slots per alive
// station. For each alive station, clone its automaton and drive it r
// virtual slots under mirrored feedback, yielding an action word
// zeta_i in {listen, transmit}^r. Classify stations by
// f(i) = (#maximal blocks of zeta_i) + (r if zeta_i starts with transmit):
// at most 2r classes, so some class C' keeps >= |C|/(2r) stations
// (pigeonhole). The adversary keeps exactly C', and stretches each
// station's slots uniformly *within each block* so that every block spans
// exactly r time units. Blocks then align across C': listening blocks are
// globally silent, transmitting blocks carry >= 2 overlapping
// transmissions (busy, no ack) — the virtual mirrored feedback becomes the
// real channel feedback, closing the induction.
//
// The driver keeps going while it can retain at least two stations, so
// the surviving stations experience phases * r slots with no successful
// transmission: a lower bound on the protocol's SST slot complexity of
// Omega(r * (log n / log r + 1)).
//
// Exactness: block stretches are r/m time units with m <= r <= 16, which
// kTicksPerUnit represents exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/protocol.h"
#include "sim/station.h"
#include "util/types.h"

namespace asyncmac::adversary {

struct MirrorResult {
  std::uint32_t phases = 0;             ///< committed phases
  std::uint64_t slots_per_station = 0;  ///< phases * r
  Tick total_time = 0;                  ///< end of the constructed execution
  std::vector<StationId> survivors;     ///< final alive set (size >= 2)
  bool verified_mirror = false;  ///< replay through the channel model agreed
};

class MirrorRun {
 public:
  /// n stations with IDs 1..n all start the SST protocol at time 0; the
  /// adversary picks slot lengths in [1, r] with 2 <= r <= R <= 16.
  MirrorRun(sim::ProtocolMaker factory, std::uint32_t n, std::uint32_t r,
            std::uint32_t bound_r, std::uint32_t max_phases = 1u << 20);

  /// Build the execution and (always) verify the mirror property by
  /// replaying the committed schedules through the exact channel model.
  MirrorResult run();

 private:
  struct AliveStation {
    StationId id;
    std::unique_ptr<sim::Protocol> protocol;  // committed automaton state
    sim::StationContext ctx;                  // committed context
    SlotAction pending;                       // action for the next slot
    // Committed schedule: (begin, end, action) per slot, for verification.
    std::vector<std::tuple<Tick, Tick, SlotAction>> schedule;
  };

  struct Extension {
    std::vector<bool> transmits;             // zeta_i, length r
    std::unique_ptr<sim::Protocol> protocol; // post-extension clone
    sim::StationContext ctx;
    SlotAction pending;                      // action after the extension
    std::uint32_t f = 0;                     // block classifier
  };

  Extension extend(const AliveStation& s) const;
  bool verify(const std::vector<AliveStation>& alive, Tick end_time) const;

  sim::ProtocolMaker factory_;
  std::uint32_t n_, r_, bound_r_, max_phases_;
};

}  // namespace asyncmac::adversary
