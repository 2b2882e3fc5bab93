// asyncmac/trace/invariants.h
//
// Trace-level invariant checkers. Tests and benches use these to verify
// *global* properties of whole executions that no single station can
// observe — collision-freedom, slot contiguity, feedback consistency
// against an independent channel-model replay, mirror-execution shape,
// and CA-ARRoW's cyclic turn order.
#pragma once

#include <string>
#include <vector>

#include "channel/transmission.h"
#include "trace/recorder.h"

namespace asyncmac::channel {
class Ledger;
}

namespace asyncmac::trace {

struct CheckResult {
  bool ok = true;
  std::string what;  ///< first violation, empty when ok

  explicit operator bool() const noexcept { return ok; }
};

/// No two transmissions overlap in time (the CA-ARRoW guarantee).
CheckResult check_no_overlaps(
    const std::vector<channel::Transmission>& transmissions);

/// Every station's slots tile its timeline: indices 1,2,3,... and each
/// slot begins exactly where the previous one ended, starting at 0.
CheckResult check_slot_contiguity(const std::vector<SlotRecord>& slots);

/// Re-derive every slot's feedback from the transmissions alone (through
/// a fresh Ledger) and compare with what the engine delivered. This is an
/// end-to-end consistency check of the channel model. When the run used
/// a k-restrained channel, pass its spec so the replay admits/rejects
/// identically (transmissions_of() returns adds in (begin, station)
/// order — the engine's event order — so admission replays exactly).
CheckResult check_feedback_consistency(const std::vector<SlotRecord>& slots,
                                       channel::RestrainedSpec restrained = {});

/// The same check against a replay the caller built and goes on using
/// (verify::check_channel_oracle): `horizon` is checkable_horizon(slots),
/// and `replay` a fresh Ledger, built with the run's restrained spec, to
/// which every transmission of transmissions_of(slots) has been added.
/// When `replayed` is given it receives one feedback per slot, the
/// replay's for each slot ending by `horizon` (kSilence for the others).
CheckResult check_feedback_consistency(const std::vector<SlotRecord>& slots,
                                       Tick horizon, channel::Ledger& replay,
                                       std::vector<Feedback>* replayed);

/// The mirror-execution property (Theorem 2): listening slots hear
/// silence, transmitting slots hear busy — and hence nobody succeeds.
CheckResult check_mirror_property(const std::vector<SlotRecord>& slots);

/// Successful transmission *bursts* (maximal runs of successive
/// transmissions by one station) rotate over stations in cyclic ID order
/// — CA-ARRoW's turn structure. `n` is the number of stations.
CheckResult check_cyclic_turn_order(
    const std::vector<channel::Transmission>& transmissions,
    std::uint32_t n);

/// Gather all transmissions recorded in a trace (from transmit slots).
std::vector<channel::Transmission> transmissions_of(
    const std::vector<SlotRecord>& slots);

/// Latest time up to which a trace is checkable against a channel replay:
/// the minimum over stations of the last recorded slot end. A slot that
/// ends later may depend on an in-flight slot the trace never recorded
/// (the trace records a slot when it ENDS), so replay-based checks skip
/// it. kTickInfinity for an empty trace.
Tick checkable_horizon(const std::vector<SlotRecord>& slots);

}  // namespace asyncmac::trace
