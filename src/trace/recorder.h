// asyncmac/trace/recorder.h
//
// Slot-level execution trace. One record per (station, slot) with the
// absolute interval, the action taken and the feedback received — enough
// to re-render schedules in the style of the paper's Fig. 2 / Fig. 4 and
// to assert trace-level invariants in tests (e.g. CA-ARRoW's transmissions
// never overlap).
#pragma once

#include <vector>

#include "util/types.h"

namespace asyncmac::trace {

struct SlotRecord {
  StationId station = kInvalidStation;
  SlotIndex index = 0;  ///< 1-based within the station's own partition
  Tick begin = 0;
  Tick end = 0;
  SlotAction action = SlotAction::kListen;
  Feedback feedback = Feedback::kSilence;

  bool operator==(const SlotRecord&) const = default;
};

class Recorder {
 public:
  /// Records are appended in slot-end order (the engine's event order).
  void record(const SlotRecord& r) { slots_.push_back(r); }

  const std::vector<SlotRecord>& slots() const noexcept { return slots_; }
  std::vector<SlotRecord>& slots() noexcept { return slots_; }
  bool empty() const noexcept { return slots_.empty(); }
  void clear() { slots_.clear(); }

  /// All records of one station, in slot order.
  std::vector<SlotRecord> station_slots(StationId id) const;

 private:
  std::vector<SlotRecord> slots_;
};

}  // namespace asyncmac::trace
