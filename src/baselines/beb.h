// asyncmac/baselines/beb.h
//
// Binary Exponential Backoff — the contention mechanism of Ethernet and
// (in randomized-slot form) of IEEE 802.11's DCF, which the paper's
// introduction positions the deterministic ARRoW protocols against
// (refs. [1], [18]). A station with packets transmits when its backoff
// counter hits zero; a failed transmission (no ack) doubles the
// contention window (capped) and redraws the counter; a success resets
// the window. Randomized, low-latency at light load, but its throughput
// degrades under sustained pressure and it offers no worst-case queue
// bound — which is exactly what the MSR benchmark shows.
#pragma once

#include "sim/protocol.h"
#include "snapshot/state.h"

namespace asyncmac::baselines {

class BebProtocol final : public sim::Protocol {
 public:
  explicit BebProtocol(std::uint32_t initial_window = 2,
                       std::uint32_t max_window = 1024)
      : window_(initial_window),
        initial_window_(initial_window),
        max_window_(max_window) {}

  std::unique_ptr<sim::Protocol> clone() const override {
    return std::make_unique<BebProtocol>(*this);
  }

  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override {
    if (prev && prev->action == SlotAction::kTransmitPacket) {
      if (prev->delivered) {
        window_ = initial_window_;
      } else {
        window_ = std::min(window_ * 2, max_window_);
      }
      backoff_ = ctx.rng().below(window_);
    }
    if (ctx.queue_empty()) return SlotAction::kListen;
    if (backoff_ > 0) {
      --backoff_;
      return SlotAction::kListen;
    }
    return SlotAction::kTransmitPacket;
  }

  std::string name() const override { return "BEB"; }

  void save_state(snapshot::Writer& w) const override {
    field(w, window_);
    field(w, backoff_);
  }
  void load_state(snapshot::Reader& r, sim::StationContext&) override {
    field(r, window_);
    field(r, backoff_);
  }

 private:
  std::uint32_t window_;
  std::uint32_t initial_window_;
  std::uint32_t max_window_;
  std::uint64_t backoff_ = 0;
};

}  // namespace asyncmac::baselines
