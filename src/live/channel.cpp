#include "live/channel.h"

#include <algorithm>

#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::live {

using channel::intervals_overlap;
using channel::Transmission;

namespace {

bool rejected(const Transmission& t) {
  return static_cast<channel::Admission>(t.admission) ==
         channel::Admission::kRejected;
}

}  // namespace

const Transmission& LiveChannel::entry(const OpenTx& o) const {
  return window_[static_cast<std::size_t>(o.seq - popped_)];
}

std::size_t LiveChannel::open_index(StationId station) const {
  std::size_t i = 0;
  while (i < open_.size() && open_[i].station != station) ++i;
  return i;
}

std::size_t LiveChannel::first_reaching(Tick from) const {
  const auto it = std::upper_bound(
      window_.begin(), window_.end(), from - max_closed_,
      [](Tick v, const Transmission& t) { return v < t.begin; });
  return static_cast<std::size_t>(it - window_.begin());
}

void LiveChannel::begin_tx(StationId station, Tick begin, bool is_control,
                           PacketSeq packet) {
  AM_CHECK_MSG(begin >= last_begin_, "transmission begins must not decrease");
  AM_CHECK_MSG(!has_open(station),
               "station " << station << " already has an open transmission");
  last_begin_ = begin;
  Transmission tx;
  tx.station = station;
  tx.begin = begin;
  tx.end = kTickInfinity;  // open: end fixed by the SlotEnd arrival
  tx.is_control = is_control;
  tx.packet = packet;
  if (restrained_.enabled()) {
    // On-air census at `begin`: non-rejected entries still occupying the
    // medium. Every open entry counts (end = +inf), once, from the side
    // list; closed entries only from the neighborhood that can still be
    // on air. Pruned entries ended at or below every live begin.
    std::uint32_t on_air = 0;
    for (const OpenTx& o : open_)
      if (!rejected(entry(o))) ++on_air;
    for (std::size_t i = first_reaching(begin); i < window_.size(); ++i) {
      const Transmission& c = window_[i];
      if (c.end != kTickInfinity && !rejected(c) && c.end > begin) ++on_air;
    }
    if (on_air >= restrained_.k) {
      if (restrained_.jam) {
        tx.admission = static_cast<std::uint8_t>(channel::Admission::kJammed);
        ++stats_.jammed;
      } else {
        tx.admission =
            static_cast<std::uint8_t>(channel::Admission::kRejected);
        tx.decided = true;  // never reaches the medium; unsuccessful now
        ++stats_.rejected;
        ++stats_.collided;
      }
    }
  }
  window_.push_back(tx);
  open_.push_back({station, popped_ + window_.size() - 1});
  ++stats_.transmissions;
  if (is_control) ++stats_.control_transmissions;
}

bool LiveChannel::close_tx(StationId station, Tick end) {
  // Openness is membership of the side list, not !decided: a rejected
  // transmission is decided at begin_tx yet still awaits its SlotEnd.
  const std::size_t k = open_index(station);
  AM_CHECK_MSG(k < open_.size(),
               "station " << station << " has no open transmission");
  const auto self = static_cast<std::size_t>(open_[k].seq - popped_);
  open_[k] = open_.back();
  open_.pop_back();
  Transmission& tx = window_[self];
  AM_CHECK_MSG(end > tx.begin, "transmission must have positive duration");
  tx.end = end;
  max_closed_ = std::max(max_closed_, tx.duration());
  if (rejected(tx)) {
    // Decided (and tallied) at begin_tx; only the interval end was open.
    return false;
  }
  tx.decided = true;

  // Success iff no other non-rejected interval overlaps [begin, end). An
  // open entry overlaps iff it begins before `end`; a closed one can only
  // if it begins after begin - max_closed_ and before `end`.
  bool successful = true;
  for (const OpenTx& o : open_) {
    const Transmission& other = entry(o);
    if (!rejected(other) && other.begin < end) {
      successful = false;
      break;
    }
  }
  for (std::size_t i = first_reaching(tx.begin);
       successful && i < window_.size() && window_[i].begin < end; ++i) {
    const Transmission& other = window_[i];
    if (i != self && !rejected(other) &&
        intervals_overlap(tx.begin, tx.end, other.begin, other.end))
      successful = false;
  }
  tx.successful = successful;

  if (successful) {
    ++stats_.successful;
    if (tx.is_control) {
      stats_.successful_control_time += tx.duration();
    } else {
      ++stats_.successful_packets;
      stats_.successful_packet_time += tx.duration();
    }
  } else {
    ++stats_.collided;
  }
  return successful;
}

Feedback LiveChannel::feedback(Tick s, Tick t) const {
  AM_CHECK(s < t);
  static telemetry::Counter& scanned_counter =
      telemetry::Registry::global().counter("live.channel_scanned");
  std::uint64_t scanned = 0;
  Feedback fb = Feedback::kSilence;
  // The neighborhood holds every closed entry that can overlap [s, t) or
  // end inside (s, t]; entries beginning at or after t can do neither.
  for (std::size_t i = first_reaching(s);
       i < window_.size() && window_[i].begin < t; ++i) {
    ++scanned;
    const Transmission& tx = window_[i];
    // Rejected transmissions never reached the medium: no ack, no busy.
    if (rejected(tx)) continue;
    if (tx.decided && tx.end > s && tx.end <= t && tx.successful) {
      fb = Feedback::kAck;
      break;
    }
    if (tx.end > s) fb = Feedback::kBusy;  // begin < t: overlaps [s, t)
  }
  // Open entries never ack; one is busy iff it begins before t. Those
  // older than the neighborhood are reached through the side list.
  for (std::size_t i = 0; fb == Feedback::kSilence && i < open_.size(); ++i) {
    ++scanned;
    const Transmission& tx = entry(open_[i]);
    if (!rejected(tx) && tx.begin < t) fb = Feedback::kBusy;
  }
  scanned_counter.add(scanned);
  return fb;
}

bool LiveChannel::transmission_successful(StationId station, Tick end) const {
  for (std::size_t i = window_.size(); i-- > 0;) {
    const Transmission& tx = window_[i];
    if (tx.station == station && tx.end == end) {
      AM_CHECK(tx.decided);  // rejected entries decide at begin_tx
      return tx.successful;
    }
    // Begin-sorted: an entry beginning more than max_closed_ before `end`
    // cannot be a closed one ending there, and neither can any older one.
    if (tx.begin + max_closed_ < end) break;
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

void LiveChannel::prune_before(Tick horizon) {
  while (!window_.empty() && window_.front().decided &&
         window_.front().end <= horizon) {
    window_.pop_front();
    ++popped_;
  }
}

bool LiveChannel::has_open(StationId station) const {
  return open_index(station) < open_.size();
}

}  // namespace asyncmac::live
