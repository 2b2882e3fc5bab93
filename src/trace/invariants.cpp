#include "trace/invariants.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "channel/ledger.h"

namespace asyncmac::trace {

namespace {

template <typename... Ts>
CheckResult fail(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return {false, os.str()};
}

}  // namespace

std::vector<channel::Transmission> transmissions_of(
    const std::vector<SlotRecord>& slots) {
  std::vector<channel::Transmission> out;
  for (const auto& s : slots) {
    if (!is_transmit(s.action)) continue;
    channel::Transmission t;
    t.station = s.station;
    t.begin = s.begin;
    t.end = s.end;
    t.is_control = (s.action == SlotAction::kTransmitControl);
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [](const channel::Transmission& a,
               const channel::Transmission& b) {
              return std::tie(a.begin, a.station) <
                     std::tie(b.begin, b.station);
            });
  return out;
}

CheckResult check_no_overlaps(
    const std::vector<channel::Transmission>& transmissions) {
  // Sorted by begin: it suffices to compare each with the running latest
  // end among predecessors.
  Tick latest_end = 0;
  StationId latest_station = kInvalidStation;
  for (const auto& t : transmissions) {
    if (t.begin < latest_end)
      return fail("transmissions overlap: station ", t.station, " starts at ",
                  t.begin, " before station ", latest_station, " ends at ",
                  latest_end);
    if (t.end > latest_end) {
      latest_end = t.end;
      latest_station = t.station;
    }
  }
  return {};
}

CheckResult check_slot_contiguity(const std::vector<SlotRecord>& slots) {
  std::map<StationId, const SlotRecord*> last;
  for (const auto& s : slots) {
    auto [it, fresh] = last.try_emplace(s.station, nullptr);
    if (fresh) {
      if (s.index != 1 || s.begin != 0)
        return fail("station ", s.station,
                    " first recorded slot is index ", s.index, " at ",
                    s.begin, " (expected index 1 at t=0)");
    } else {
      const SlotRecord* prev = it->second;
      if (s.index != prev->index + 1)
        return fail("station ", s.station, " slot index jumps from ",
                    prev->index, " to ", s.index);
      if (s.begin != prev->end)
        return fail("station ", s.station, " slot ", s.index,
                    " begins at ", s.begin, " but previous ended at ",
                    prev->end);
    }
    if (s.end <= s.begin)
      return fail("station ", s.station, " slot ", s.index, " is empty");
    it->second = &s;
  }
  return {};
}

Tick checkable_horizon(const std::vector<SlotRecord>& slots) {
  // At the end of a run each station may have one in-flight slot the
  // trace never sees. An unseen in-flight *transmission* influenced other
  // stations' feedback but is absent from a replay, so only slots ending
  // at or before the earliest per-station "last recorded end" are
  // checkable: every unseen transmission begins at its station's last
  // recorded end, which is >= that horizon, and therefore cannot overlap
  // a checkable slot.
  std::map<StationId, Tick> last_end;
  for (const auto& s : slots)
    last_end[s.station] = std::max(last_end[s.station], s.end);
  Tick horizon = kTickInfinity;
  for (const auto& [station, end] : last_end)
    horizon = std::min(horizon, end);
  return horizon;
}

CheckResult check_feedback_consistency(const std::vector<SlotRecord>& slots,
                                       channel::RestrainedSpec restrained) {
  channel::Ledger ledger(/*keep_history=*/false, restrained);
  for (const auto& t : transmissions_of(slots)) ledger.add(t);
  return check_feedback_consistency(slots, checkable_horizon(slots), ledger,
                                    nullptr);
}

CheckResult check_feedback_consistency(const std::vector<SlotRecord>& slots,
                                       Tick horizon, channel::Ledger& replay,
                                       std::vector<Feedback>* replayed) {
  if (replayed) replayed->assign(slots.size(), Feedback::kSilence);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const SlotRecord& s = slots[i];
    if (s.end > horizon) continue;  // may depend on unrecorded slots
    const Feedback expected = replay.feedback(s.begin, s.end);
    if (replayed) (*replayed)[i] = expected;
    if (s.feedback != expected)
      return fail("station ", s.station, " slot ", s.index, " at [",
                  s.begin, ",", s.end, ") recorded ", to_string(s.feedback),
                  " but the channel model replays ", to_string(expected));
  }
  return {};
}

CheckResult check_mirror_property(const std::vector<SlotRecord>& slots) {
  for (const auto& s : slots) {
    const Feedback expected =
        is_transmit(s.action) ? Feedback::kBusy : Feedback::kSilence;
    if (s.feedback != expected)
      return fail("mirror broken: station ", s.station, " slot ", s.index,
                  " did ", to_string(s.action), " but heard ",
                  to_string(s.feedback));
  }
  return {};
}

CheckResult check_cyclic_turn_order(
    const std::vector<channel::Transmission>& transmissions,
    std::uint32_t n) {
  StationId prev_burst = kInvalidStation;
  StationId current = kInvalidStation;
  for (const auto& t : transmissions) {
    if (t.station == current) continue;  // same burst continues
    // New burst: must be the cyclic successor of the previous burst's
    // station (bursts by stations with empty turns are skipped only via
    // their control signal, which still shows up as a burst).
    if (prev_burst != kInvalidStation) {
      const StationId expected = (prev_burst % n) + 1;
      if (t.station != expected)
        return fail("turn order broken at t=", t.begin, ": station ",
                    t.station, " transmits after station ", prev_burst,
                    " (expected ", expected, ")");
    }
    prev_burst = current = t.station;
  }
  return {};
}

}  // namespace asyncmac::trace
