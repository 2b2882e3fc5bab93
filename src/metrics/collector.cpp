#include "metrics/collector.h"

#include <algorithm>

#include "snapshot/state.h"
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

template <typename S, typename Self>
void Collector::fields(S& s, Self& self) {
  auto& st = self.stats_;
  field(s, st.injected_packets);
  field(s, st.injected_cost);
  field(s, st.delivered_packets);
  field(s, st.delivered_cost);
  field(s, st.realized_cost);
  field(s, st.queued_packets);
  field(s, st.queued_cost);
  field(s, st.max_queued_packets);
  field(s, st.max_queued_cost);
  field(s, st.total_slots);
  field(s, st.listen_slots);
  field(s, st.transmit_slots);
  field(s, st.control_slots);
  util::Histogram::State h = st.latency.state();
  elements(s, h.buckets, 8);
  field(s, h.count);
  field(s, h.sum.hi);
  field(s, h.sum.lo);
  field(s, h.min);
  field(s, h.max);
  if constexpr (snapshot::kLoading<S>) st.latency.restore(std::move(h));
  echo(s, "collector station count differs from the snapshot's",
       st.station.size());
  for (auto& station : st.station) {
    field(s, station.slots);
    field(s, station.transmit_slots);
    field(s, station.injected);
    field(s, station.delivered);
    field(s, station.queued);
    field(s, station.queued_cost);
    field(s, station.max_queued);
    field(s, station.max_queued_cost);
  }
}

void Collector::save_state(snapshot::Writer& w) const { fields(w, *this); }

void Collector::load_state(snapshot::Reader& r) { fields(r, *this); }

}  // namespace asyncmac::metrics
