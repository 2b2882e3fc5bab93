#include "channel/window.h"

#include <algorithm>
#include <functional>

#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::channel {

namespace {

/// Wire size of one transmission: station, begin, end, is_control,
/// packet, successful, decided, admission.
constexpr std::size_t kEntryBytes = 4 + 8 + 8 + 1 + 8 + 1 + 1 + 1;

void save_transmission(snapshot::Writer& w, const Transmission& t) {
  w.u32(t.station);
  w.i64(t.begin);
  w.i64(t.end);
  w.boolean(t.is_control);
  w.u64(t.packet);
  w.boolean(t.successful);
  w.boolean(t.decided);
  w.u8(t.admission);
}

Transmission load_transmission(snapshot::Reader& r) {
  Transmission t;
  t.station = r.u32();
  t.begin = r.i64();
  t.end = r.i64();
  t.is_control = r.boolean();
  t.packet = r.u64();
  t.successful = r.boolean();
  t.decided = r.boolean();
  t.admission = static_cast<std::uint8_t>(
      snapshot::load_enum(r, Admission::kRejected));
  return t;
}

bool rejected(std::uint8_t admission) {
  return static_cast<Admission>(admission) == Admission::kRejected;
}

}  // namespace

Transmission Window::entry(std::size_t i) const {
  Transmission t;
  t.station = station_[i];
  t.begin = begin_[i];
  t.end = end_[i];
  t.is_control = is_control_[i] != 0;
  t.packet = packet_[i];
  t.successful = successful_[i] != 0;
  t.decided = decided_[i] != 0;
  t.admission = admission_[i];
  return t;
}

void Window::append(const Transmission& t) {
  begin_.push_back(t.begin);
  end_.push_back(t.end);
  station_.push_back(t.station);
  packet_.push_back(t.packet);
  is_control_.push_back(t.is_control ? 1 : 0);
  successful_.push_back(t.successful ? 1 : 0);
  decided_.push_back(t.decided ? 1 : 0);
  admission_.push_back(t.admission);
}

bool Window::add(Transmission t) {
  AM_CHECK_MSG(t.begin >= last_begin_,
               "transmissions must be added in begin order: " << t.begin
                                                              << " < "
                                                              << last_begin_);
  AM_CHECK(t.end > t.begin);
  AM_CHECK(t.station != kInvalidStation);
  const bool open = t.end == kTickInfinity;
  AM_CHECK_MSG(!open || open_slot(t.station) == open_.size(),
               "station " << t.station << " already has an open transmission");
  t.decided = false;
  t.successful = false;
  t.admission = static_cast<std::uint8_t>(Admission::kOk);
  if (restrained_.enabled()) {
    const Admission verdict = admit(t.begin, t.end);
    t.admission = static_cast<std::uint8_t>(verdict);
    if (verdict == Admission::kJammed) {
      ++stats_.jammed;
    } else if (verdict == Admission::kRejected) {
      // Suppressed at the radio: decided-unsuccessful right here, and
      // counted as collided so successful + collided keeps tracking the
      // decided count exactly as finalize_until maintains it.
      t.decided = true;
      ++stats_.rejected;
      ++stats_.collided;
    }
  }
  last_begin_ = t.begin;
  ++stats_.transmissions;
  if (t.is_control) ++stats_.control_transmissions;
  if (open) open_.push_back(begin_.size());
  if (!t.decided) next_due_ = std::min(next_due_, t.end);
  append(t);
  return !open && raise_watermarks(t.begin, t.end);
}

bool Window::raise_watermarks(Tick begin, Tick end) {
  latest_end_ = std::max(latest_end_, end);
  if (end - begin <= max_duration_) return false;
  max_duration_ = end - begin;
  return true;
}

std::size_t Window::open_slot(StationId station) const {
  std::size_t k = 0;
  while (k < open_.size() && station_[open_[k]] != station) ++k;
  return k;
}

bool Window::close(StationId station, Tick end) {
  // Openness is membership of the side list, not !decided: a rejected
  // entry is decided at add() yet still awaits its end.
  const std::size_t k = open_slot(station);
  AM_CHECK_MSG(k < open_.size(),
               "station " << station << " has no open transmission");
  const std::size_t i = open_[k];
  open_[k] = open_.back();
  open_.pop_back();
  AM_CHECK_MSG(end > begin_[i], "transmission must have positive duration");
  end_[i] = end;
  if (!decided_[i]) next_due_ = std::min(next_due_, end);
  raise_watermarks(begin_[i], end);
  if (restrained_.enabled() && !rejected(admission_[i])) {
    --open_on_air_;
    live_ends_.push_back(end);
    std::push_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
  }
  finalize_until(end);
  return successful_[i] != 0;
}

Admission Window::admit(Tick begin, Tick end) {
  // Half-open intervals: a transmission ending exactly at `begin` is off
  // the air already.
  while (!live_ends_.empty() && live_ends_.front() <= begin) {
    std::pop_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
    live_ends_.pop_back();
  }
  // Every open entry is on air: its end, still unknown, is after `begin`.
  const std::size_t on_air = live_ends_.size() + open_on_air_;
  if (on_air >= restrained_.k && !restrained_.jam) return Admission::kRejected;
  // Admitted or jammed, the transmission occupies the medium and counts
  // toward the on-air total later adds see.
  const Admission verdict =
      on_air < restrained_.k ? Admission::kOk : Admission::kJammed;
  if (end == kTickInfinity) {
    ++open_on_air_;
  } else {
    live_ends_.push_back(end);
    std::push_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
  }
  return verdict;
}

bool Window::overlaps_other(std::size_t i) const {
  const Tick b = begin_[i];
  const Tick e = end_[i];
  // Predecessors: begin <= b, so one overlaps iff it is still on air at
  // b; none beginning max_duration_ or more before b can be.
  for (std::size_t j = i; j > head_;) {
    --j;
    if (begin_[j] + max_duration_ <= b) break;
    if (!rejected(admission_[j]) && end_[j] > b) return true;
  }
  // Successors: begin >= b, so one overlaps iff it begins before e.
  for (std::size_t j = i + 1; j < begin_.size() && begin_[j] < e; ++j)
    if (!rejected(admission_[j])) return true;
  // Open entries (end +inf) overlap iff they begin before e; the scans
  // above miss the ones beginning max_duration_ or more before b.
  for (const std::size_t j : open_)
    if (!rejected(admission_[j]) && begin_[j] < e) return true;
  return false;
}

void Window::finalize_until(Tick now) {
  // Begins are non-decreasing but ends are not, so decidable entries can
  // be interleaved with pending ones: walk the undecided suffix, decide
  // each entry whose end has passed, then advance the decided prefix.
  // Before next_due_ no entry is decidable and the walk is skipped; the
  // prefix still advances over entries decided at add (rejected ones).
  if (now >= next_due_) {
    next_due_ = kTickInfinity;
    for (std::size_t i = finalized_; i < begin_.size(); ++i) {
      if (decided_[i]) continue;
      if (end_[i] > now) {
        next_due_ = std::min(next_due_, end_[i]);
        continue;
      }
      const bool ok = !overlaps_other(i);
      successful_[i] = ok ? 1 : 0;
      decided_[i] = 1;
      if (ok) {
        ++stats_.successful;
        const Tick duration = end_[i] - begin_[i];
        if (is_control_[i]) {
          stats_.successful_control_time += duration;
        } else {
          ++stats_.successful_packets;
          stats_.successful_packet_time += duration;
        }
      } else {
        ++stats_.collided;
      }
    }
  }
  while (finalized_ < begin_.size() && decided_[finalized_]) ++finalized_;
}

std::size_t Window::seek_after(Tick x) const {
  // Queries ask about the newest slots, so the answer lies within a few
  // entries of the end: gallop back 1, 2, 4, ... entries until a begin
  // at or before x, then binary-search the last step. O(log distance).
  std::size_t hi = begin_.size();  // every begin in [hi, size) is > x
  std::size_t step = 1;
  while (hi - head_ > step && begin_[hi - step] > x) {
    hi -= step;
    step *= 2;
  }
  // Either the step reaches the window start or begin_[hi - step] <= x.
  const std::size_t lo = hi - head_ > step ? hi - step + 1 : head_;
  return static_cast<std::size_t>(
      std::upper_bound(begin_.begin() + static_cast<std::ptrdiff_t>(lo),
                       begin_.begin() + static_cast<std::ptrdiff_t>(hi), x) -
      begin_.begin());
}

Feedback Window::feedback(Tick s, Tick t, std::uint64_t& scanned) {
  finalize_until(t);
  // An entry with begin <= s - max_duration_ has end <= s: it neither
  // overlaps [s, t) nor ends inside (s, t]. Seek past those.
  std::size_t i = seek_after(s - max_duration_);
  bool any_overlap = false;
  scanned = 0;
  for (; i < begin_.size() && begin_[i] < t; ++i) {
    ++scanned;
    // Rejected entries never reached the medium: visited (and counted)
    // but neither ack nor busy.
    if (rejected(admission_[i])) continue;
    if (end_[i] > s && end_[i] <= t) {
      AM_CHECK(decided_[i]);  // end <= t means finalize_until(t) decided it
      if (successful_[i]) return Feedback::kAck;
    }
    // begin < t here, so the entry overlaps [s, t) iff it ends after s.
    any_overlap = any_overlap || end_[i] > s;
  }
  // Open entries never ack and are busy iff they begin before t; the
  // seek skips the ones beginning max_duration_ or more before s.
  for (std::size_t k = 0; !any_overlap && k < open_.size(); ++k) {
    ++scanned;
    const std::size_t j = open_[k];
    any_overlap = !rejected(admission_[j]) && begin_[j] < t;
  }
  return any_overlap ? Feedback::kBusy : Feedback::kSilence;
}

bool Window::transmission_successful(StationId station, Tick end) const {
  for (std::size_t i = begin_.size(); i-- > head_;) {
    if (station_[i] == station && end_[i] == end) {
      AM_CHECK(decided_[i]);
      return successful_[i] != 0;
    }
    // Begin-sorted: an entry beginning more than max_duration_ before
    // `end` cannot end there, and neither can any older one.
    if (begin_[i] + max_duration_ < end) break;
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

std::uint64_t Window::prune_before(Tick horizon) {
  finalize_until(horizon);
  const std::size_t first = head_;
  while (head_ < finalized_ && end_[head_] <= horizon) {
    if (keep_history_) history_.push_back(entry(head_));
    ++head_;
  }
  const std::uint64_t removed = head_ - first;
  if (head_ >= kCompactMinDead && head_ >= live()) {
    const auto dead = static_cast<std::ptrdiff_t>(head_);
    const auto drop = [dead](auto& v) { v.erase(v.begin(), v.begin() + dead); };
    drop(begin_);
    drop(end_);
    drop(station_);
    drop(packet_);
    drop(is_control_);
    drop(successful_);
    drop(decided_);
    drop(admission_);
    finalized_ -= head_;
    for (std::size_t& j : open_) j -= head_;
    head_ = 0;
  }
  return removed;
}

std::vector<Transmission> Window::entries() const {
  std::vector<Transmission> out;
  out.reserve(live());
  for (std::size_t i = head_; i < begin_.size(); ++i) out.push_back(entry(i));
  return out;
}

void Window::save(snapshot::Writer& w) const {
  AM_CHECK_MSG(open_.empty(), "a window with open entries cannot be saved");
  w.boolean(keep_history_);
  w.u32(restrained_.k);
  w.boolean(restrained_.jam);
  w.u64(live());
  for (std::size_t i = head_; i < begin_.size(); ++i)
    save_transmission(w, entry(i));
  w.u64(finalized_ - head_);
  w.u64(history_.size());
  for (const Transmission& t : history_) save_transmission(w, t);
  w.u64(stats_.transmissions);
  w.u64(stats_.successful);
  w.u64(stats_.collided);
  w.u64(stats_.control_transmissions);
  w.u64(stats_.successful_packets);
  w.i64(stats_.successful_packet_time);
  w.i64(stats_.successful_control_time);
  w.u64(stats_.rejected);
  w.u64(stats_.jammed);
  w.i64(last_begin_);
  w.i64(latest_end_);
  w.i64(max_duration_);
}

void Window::load(snapshot::Reader& r) {
  if (r.boolean() != keep_history_)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "ledger keep_history flag differs from the snapshot's");
  const std::uint32_t restrained_k = r.u32();
  const bool restrained_jam = r.boolean();
  if (restrained_k != restrained_.k || restrained_jam != restrained_.jam)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "ledger restrained-channel spec differs from the snapshot's");
  *this = Window(keep_history_, restrained_);
  const auto live_count = static_cast<std::size_t>(r.count(kEntryBytes));
  const auto reserve = [live_count](auto& v) { v.reserve(live_count); };
  reserve(begin_);
  reserve(end_);
  reserve(station_);
  reserve(packet_);
  reserve(is_control_);
  reserve(successful_);
  reserve(decided_);
  reserve(admission_);
  for (std::size_t i = 0; i < live_count; ++i) append(load_transmission(r));
  const std::uint64_t finalized = r.u64();
  if (finalized > live_count)
    throw snapshot::SnapshotError(snapshot::ErrorKind::kCorrupt,
                                  "ledger finalized cursor beyond window");
  finalized_ = static_cast<std::size_t>(finalized);
  const auto history_count = static_cast<std::size_t>(r.count(kEntryBytes));
  history_.reserve(history_count);
  for (std::size_t i = 0; i < history_count; ++i)
    history_.push_back(load_transmission(r));
  stats_.transmissions = r.u64();
  stats_.successful = r.u64();
  stats_.collided = r.u64();
  stats_.control_transmissions = r.u64();
  stats_.successful_packets = r.u64();
  stats_.successful_packet_time = r.i64();
  stats_.successful_control_time = r.i64();
  stats_.rejected = r.u64();
  stats_.jammed = r.u64();
  last_begin_ = r.i64();
  latest_end_ = r.i64();
  max_duration_ = r.i64();
  for (std::size_t i = finalized_; i < begin_.size(); ++i)
    if (!decided_[i]) next_due_ = std::min(next_due_, end_[i]);
  if (restrained_.enabled()) {
    for (std::size_t i = 0; i < begin_.size(); ++i)
      if (!rejected(admission_[i])) live_ends_.push_back(end_[i]);
    std::make_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
  }
}

}  // namespace asyncmac::channel
