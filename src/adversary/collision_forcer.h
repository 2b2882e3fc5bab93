// asyncmac/adversary/collision_forcer.h
//
// The Theorem-4 adversary (Section V): against any deterministic protocol
// that sends no control messages and claims to be collision-free, either
// drive some queue above a chosen bound L or force a collision.
//
// Construction (following the proof, with one precision fix): pick
// S > (2L+2) / (rho (R-1)) and probe each of two stations alone — inject
// its first packet at the end of its slot S and further packets at rate
// rho/2, with every slot one unit long, and record the index of its first
// transmission attempt (the protocol hears only silence until then, so
// the index depends only on slot counts, not on slot lengths). If either
// station withholds past slot S + 2L/rho + 1, its queue already exceeds
// L. Otherwise, with alpha/beta the measured withholding spans, fix the
// two stations' slot lengths X = c (S+beta-1), Y = c (S+alpha-1): the
// *starts* of their first transmissions then coincide exactly in real
// time (neither hears the other before committing, because feedback only
// arrives at slot ends), and the two transmissions overlap — a collision.
// (The paper's sketch aligns the transmission ends; aligning the starts
// is the airtight variant: with ends aligned the shorter-slot station
// would hear the longer transmission one slot early.)
#pragma once

#include <cstdint>

#include "sim/protocol.h"
#include "util/ratio.h"
#include "util/types.h"

namespace asyncmac::adversary {

struct CollisionForceOutcome {
  enum class Kind : std::uint8_t {
    kCollisionForced,  ///< the protocol collided: not collision-free
    kQueueOverflow,    ///< a probe queue exceeded L: not stable
    kNoTransmission,   ///< protocol never transmitted (degenerate; counts
                       ///< as overflow once L packets accumulate)
  };
  Kind kind = Kind::kNoTransmission;
  std::uint64_t s_start = 0;          ///< the S parameter used
  std::uint64_t alpha = 0, beta = 0;  ///< measured withholding spans
  Tick x_ticks = 0, y_ticks = 0;      ///< chosen slot lengths
  Tick collision_time = 0;            ///< start of the forced collision
  std::uint64_t collisions = 0;       ///< collided transmissions observed
  std::uint64_t overflow_queue = 0;   ///< packets queued at overflow
};

/// Run the Theorem-4 construction against `factory` (two stations, IDs 1
/// and 2) for injection rate rho in (0, 1] and queue bound L (packets).
/// Requires R >= 2. Throws if the protocol emits control messages (it is
/// then outside the theorem's model class).
CollisionForceOutcome force_collision_or_overflow(
    const sim::ProtocolMaker& factory, util::Ratio rho, std::uint64_t l_bound,
    std::uint32_t bound_r);

}  // namespace asyncmac::adversary
