// asyncmac/baselines/csma_lbt.h
//
// Carrier-sensing listen-before-talk (CSMA/LBT) — the channel-access
// discipline of unlicensed-band MACs (ETSI EN 301 893 LBT, 802.11 CCA):
// a station with packets first *senses* the medium for a gap of M
// consecutive idle observation slots, then counts down a random backoff
// drawn from a contention window, and only then transmits. A failed
// transmission doubles the window (capped) and the whole gap + backoff
// procedure restarts; a success resets the window.
//
// In the paper's feedback model a station's only carrier sense is the
// feedback of its own slots: kSilence means the medium was idle for the
// whole slot, kBusy/kAck mean some transmission touched it. The gap is
// therefore counted in *own listen slots that came back silent* — under
// asynchronous slot policies different stations observe different gap
// lengths in real time, which is exactly the asynchrony stress the
// ARRoW protocols are built to survive and this baseline is not.
//
// Like BEB this is randomized (ctx.rng()) and offers no worst-case
// queue bound; unlike BEB it never transmits into a slot it just heard
// traffic in, so its collision rate is lower at the price of deferral
// latency (bench_energy's CSMA-LBT gap sweep measures that trade-off).
#pragma once

#include <algorithm>

#include "sim/protocol.h"
#include "snapshot/state.h"

namespace asyncmac::baselines {

class CsmaLbtProtocol final : public sim::Protocol {
 public:
  /// `gap_slots` is the LBT deter period: consecutive silent listen
  /// slots required before the backoff countdown may run (M observation
  /// slots). `initial_window`/`max_window` bound the contention window
  /// the backoff is drawn from.
  explicit CsmaLbtProtocol(std::uint32_t gap_slots = 2,
                           std::uint32_t initial_window = 4,
                           std::uint32_t max_window = 1024)
      : gap_slots_(gap_slots),
        window_(initial_window),
        initial_window_(initial_window),
        max_window_(max_window) {}

  std::unique_ptr<sim::Protocol> clone() const override {
    return std::make_unique<CsmaLbtProtocol>(*this);
  }

  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override {
    if (prev) {
      if (prev->action == SlotAction::kTransmitPacket) {
        if (prev->delivered) {
          window_ = initial_window_;
        } else {
          window_ = std::min(window_ * 2, max_window_);
        }
        backoff_ = ctx.rng().below(window_);
        idle_run_ = 0;  // re-sense the gap before the next attempt
      } else if (prev->feedback == Feedback::kSilence) {
        ++idle_run_;
      } else {
        // Heard traffic: the gap restarts, and a busy medium also
        // freezes the backoff countdown (only slots past the gap with a
        // silent history decrement it below).
        idle_run_ = 0;
      }
    }
    if (ctx.queue_empty()) return SlotAction::kListen;
    if (idle_run_ < gap_slots_) return SlotAction::kListen;  // sensing
    if (backoff_ > 0) {
      --backoff_;
      return SlotAction::kListen;  // idle observation slot, counted down
    }
    return SlotAction::kTransmitPacket;
  }

  std::string name() const override { return "CSMA-LBT"; }

  void save_state(snapshot::Writer& w) const override { fields(w, *this); }
  void load_state(snapshot::Reader& r, sim::StationContext&) override {
    fields(r, *this);
  }

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self) {
    field(s, self.window_);
    field(s, self.backoff_);
    field(s, self.idle_run_);
  }

  std::uint32_t gap_slots_;
  std::uint32_t window_;
  std::uint32_t initial_window_;
  std::uint32_t max_window_;
  std::uint64_t backoff_ = 0;
  std::uint64_t idle_run_ = 0;  ///< consecutive silent own listen slots
};

}  // namespace asyncmac::baselines
