// asyncmac/sim/station.h
//
// StationContext is the *entire* world a protocol may observe, enforcing
// the paper's information model: a station knows its ID, n, the asynchrony
// bound R, and the contents of its own packet queue. It has no clock, no
// slot-length information and no view of other stations — those can only
// be inferred from channel feedback.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/packet.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::adversary {
class MirrorRun;  // Theorem-2 lower-bound driver (virtual executions)
}

namespace asyncmac::live {
class StationMachine;  // live-channel client driving a Protocol remotely
}

namespace asyncmac::sim {

class Engine;

class StationContext {
 public:
  StationContext(StationId id, std::uint32_t n, std::uint32_t bound_r,
                 std::uint64_t rng_seed);

  StationId id() const noexcept { return id_; }
  std::uint32_t n() const noexcept { return n_; }
  /// The known upper bound R >= 1 on slot length (in time units).
  std::uint32_t bound_r() const noexcept { return bound_r_; }

  std::size_t queue_size() const noexcept { return queue_.size(); }
  bool queue_empty() const noexcept { return queue_.empty(); }
  Tick queue_cost() const noexcept { return queue_cost_; }

  /// Station-local RNG for randomized protocols (e.g. slotted ALOHA).
  /// Deterministic protocols must not use it.
  util::Rng& rng() noexcept { return rng_; }

 private:
  friend class Engine;  // queue is mutated only by the engine
  friend class asyncmac::adversary::MirrorRun;  // and by virtual runs
  // The live-channel station client replays the engine's queue operations
  // from daemon feedback (push on injection, pop on delivery), keeping the
  // protocol's observable world identical to a simulated run.
  friend class asyncmac::live::StationMachine;

  void push(const Packet& p);
  Packet pop_front();
  const Packet& front() const;

  StationId id_;
  std::uint32_t n_;
  std::uint32_t bound_r_;
  std::deque<Packet> queue_;
  Tick queue_cost_ = 0;
  util::Rng rng_;
};

}  // namespace asyncmac::sim
