#include "metrics/collector.h"

#include <algorithm>

#include "snapshot/io.h"
#include "util/check.h"

namespace asyncmac::metrics {

Collector::Collector(std::uint32_t n) { stats_.station.resize(n); }

StationStats& Collector::st(StationId id) {
  AM_CHECK(id >= 1 && id <= stats_.station.size());
  return stats_.station[id - 1];
}

void Collector::on_injection(StationId station, Tick cost, Tick now) {
  (void)now;
  AM_CHECK(cost > 0);
  ++stats_.injected_packets;
  stats_.injected_cost += cost;
  ++stats_.queued_packets;
  stats_.queued_cost += cost;
  stats_.max_queued_packets =
      std::max(stats_.max_queued_packets, stats_.queued_packets);
  stats_.max_queued_cost = std::max(stats_.max_queued_cost, stats_.queued_cost);

  auto& s = st(station);
  ++s.injected;
  ++s.queued;
  s.queued_cost += cost;
  s.max_queued = std::max(s.max_queued, s.queued);
  s.max_queued_cost = std::max(s.max_queued_cost, s.queued_cost);
}

void Collector::on_delivery(StationId station, Tick declared_cost,
                            Tick injected_at, Tick realized, Tick now) {
  ++stats_.delivered_packets;
  stats_.delivered_cost += declared_cost;
  stats_.realized_cost += realized;
  AM_CHECK(stats_.queued_packets > 0);
  --stats_.queued_packets;
  stats_.queued_cost -= declared_cost;
  stats_.latency.add(now - injected_at);

  auto& s = st(station);
  ++s.delivered;
  AM_CHECK(s.queued > 0);
  --s.queued;
  s.queued_cost -= declared_cost;
}

void Collector::save_state(snapshot::Writer& w) const {
  w.u64(stats_.injected_packets);
  w.i64(stats_.injected_cost);
  w.u64(stats_.delivered_packets);
  w.i64(stats_.delivered_cost);
  w.i64(stats_.realized_cost);
  w.u64(stats_.queued_packets);
  w.i64(stats_.queued_cost);
  w.u64(stats_.max_queued_packets);
  w.i64(stats_.max_queued_cost);
  w.u64(stats_.total_slots);
  w.u64(stats_.listen_slots);
  w.u64(stats_.transmit_slots);
  w.u64(stats_.control_slots);
  const util::Histogram::State h = stats_.latency.state();
  w.u64(h.buckets.size());
  for (std::uint64_t b : h.buckets) w.u64(b);
  w.u64(h.count);
  w.i64(h.sum.hi);
  w.u64(h.sum.lo);
  w.i64(h.min);
  w.i64(h.max);
  w.u64(stats_.station.size());
  for (const StationStats& s : stats_.station) {
    w.u64(s.slots);
    w.u64(s.transmit_slots);
    w.u64(s.injected);
    w.u64(s.delivered);
    w.u64(s.queued);
    w.i64(s.queued_cost);
    w.u64(s.max_queued);
    w.i64(s.max_queued_cost);
  }
}

void Collector::load_state(snapshot::Reader& r) {
  stats_.injected_packets = r.u64();
  stats_.injected_cost = r.i64();
  stats_.delivered_packets = r.u64();
  stats_.delivered_cost = r.i64();
  stats_.realized_cost = r.i64();
  stats_.queued_packets = r.u64();
  stats_.queued_cost = r.i64();
  stats_.max_queued_packets = r.u64();
  stats_.max_queued_cost = r.i64();
  stats_.total_slots = r.u64();
  stats_.listen_slots = r.u64();
  stats_.transmit_slots = r.u64();
  stats_.control_slots = r.u64();
  util::Histogram::State h;
  const std::uint64_t buckets = r.count(8);
  h.buckets.reserve(static_cast<std::size_t>(buckets));
  for (std::uint64_t i = 0; i < buckets; ++i) h.buckets.push_back(r.u64());
  h.count = r.u64();
  h.sum.hi = r.i64();
  h.sum.lo = r.u64();
  h.min = r.i64();
  h.max = r.i64();
  stats_.latency.restore(std::move(h));
  const std::uint64_t n = r.u64();
  if (n != stats_.station.size())
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "collector station count differs from the snapshot's");
  for (StationStats& s : stats_.station) {
    s.slots = r.u64();
    s.transmit_slots = r.u64();
    s.injected = r.u64();
    s.delivered = r.u64();
    s.queued = r.u64();
    s.queued_cost = r.i64();
    s.max_queued = r.u64();
    s.max_queued_cost = r.i64();
  }
}

}  // namespace asyncmac::metrics
