// asyncmac/core/leader_election.h
//
// The abstract leader-election subroutine. Theorem 3 is stated for
// AO-ARRoW with *any* Leader_Election(R) of per-station slot length A
// ("Let A be the length in slots of subroutine Leader_Election(R)…");
// the closed-form constants simply plug in ABS's A. Making the
// subroutine pluggable lets the benchmarks demonstrate why an
// asynchrony-safe election is load-bearing: AO-ARRoW over the classic
// synchronous binary search works at R = 1 and falls apart at R > 1.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "sim/protocol.h"
#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::core {

class LeaderElection {
 public:
  enum class Outcome : std::uint8_t { kActive, kWon, kEliminated };

  virtual ~LeaderElection() = default;

  /// Drive one slot boundary (nullopt before the election's first slot).
  /// A returned kTransmitPacket is abstract "transmit"; the caller remaps
  /// it to control when it has no packet to send.
  virtual SlotAction next(const std::optional<sim::SlotResult>& prev) = 0;

  virtual Outcome outcome() const = 0;
  bool active() const { return outcome() == Outcome::kActive; }

  /// Slots consumed while active (the paper's A, measured).
  virtual std::uint64_t slots() const = 0;

  /// Deep copy including all automaton state (protocols embedding an
  /// election must themselves be cloneable).
  virtual std::unique_ptr<LeaderElection> clone() const = 0;

  /// Checkpoint/resume: serialize/restore all automaton state, the
  /// construction parameters included (load_state runs on an instance the
  /// embedding protocol freshly created through its factory and must
  /// overwrite everything). Pure virtual on purpose — a forgotten
  /// implementation would silently break resumed determinism.
  virtual void save_state(snapshot::Writer& w) const = 0;
  virtual void load_state(snapshot::Reader& r) = 0;
};

/// Bit `phase` of a station ID: the per-phase input of the bit-by-bit
/// elections (ABS, the synchronous binary search). Bits above the ID's
/// width read as 0, so an election that runs more phases than an ID has
/// bits sees leading zeros instead of shifting out of range.
inline bool id_bit(StationId id, std::uint32_t phase) noexcept {
  return phase < std::numeric_limits<StationId>::digits &&
         ((id >> phase) & 1U) != 0;
}

/// Creates a fresh election instance for a station about to compete.
using LeaderElectionFactory = std::function<std::unique_ptr<LeaderElection>(
    StationId id, std::uint32_t n, std::uint32_t bound_r)>;

}  // namespace asyncmac::core
