#include "live/virtual_net.h"

#include <algorithm>

#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::live {

VirtualNet::VirtualNet(Daemon& daemon, std::vector<StationMachine*> stations,
                       EmulationKnobs knobs)
    : daemon_(daemon),
      stations_(std::move(stations)),
      knobs_(knobs),
      rng_(knobs.seed) {
  AM_REQUIRE(stations_.size() == daemon_.station_count(),
             "one station machine per station");
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    AM_REQUIRE(stations_[i] != nullptr, "station machine must not be null");
    AM_REQUIRE(stations_[i]->id() == static_cast<StationId>(i + 1),
               "station machines must be ordered by id");
  }
  timers_.resize(stations_.size());
  sent_to_station_.resize(stations_.size());
  sent_to_daemon_.resize(stations_.size());
}

void VirtualNet::add_drop(bool to_station, StationId station,
                          std::uint64_t nth) {
  drops_[{to_station, station}].push_back(nth);
}

Tick VirtualNet::latency() {
  Tick lat = knobs_.delay;
  if (knobs_.jitter > 0)
    lat += static_cast<Tick>(
        rng_.below(static_cast<std::uint64_t>(knobs_.jitter) + 1));
  return lat;
}

void VirtualNet::dispatch(StationId station, bool to_station,
                          std::span<const std::uint8_t> bytes) {
  if (knobs_.loss > 0 && rng_.chance(knobs_.loss)) {
    telemetry::count("live.emu_dropped");
    return;
  }
  auto& sent = to_station ? sent_to_station_ : sent_to_daemon_;
  AM_CHECK(station >= 1 && station <= sent.size());
  const std::uint64_t index = sent[station - 1]++;
  if (!drops_.empty()) {
    auto it = drops_.find({to_station, station});
    if (it != drops_.end()) {
      auto& list = it->second;
      auto pos = std::find(list.begin(), list.end(), index);
      if (pos != list.end()) {
        list.erase(pos);
        telemetry::count("live.emu_dropped");
        return;
      }
    }
  }
  Event ev;
  ev.time = now_ + latency();
  ev.seq = next_event_seq_++;
  ev.station = station;
  ev.to_station = to_station;
  if (free_.empty()) {
    ev.buffer = static_cast<std::uint32_t>(buffers_.size());
    buffers_.emplace_back();
  } else {
    ev.buffer = free_.back();
    free_.pop_back();
  }
  buffers_[ev.buffer].assign(bytes.begin(), bytes.end());
  const auto head = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  queue_.insert(std::upper_bound(head, queue_.end(), ev, EventEarlier{}), ev);
}

bool VirtualNet::due(bool to_station) const {
  return head_ < queue_.size() && queue_[head_].time <= now_ &&
         queue_[head_].to_station == to_station;
}

VirtualNet::Event VirtualNet::pop() {
  const Event ev = queue_[head_++];
  // Drop the delivered prefix once it is half the queue: O(1) amortized,
  // and the queue stays bounded by the events in flight.
  if (2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return ev;
}

void VirtualNet::apply_station_actions(StationId id,
                                       StationMachine::Actions actions) {
  if (!actions.send.empty()) dispatch(id, /*to_station=*/false, actions.send);
  timers_[id - 1] = actions.finished ? std::nullopt : actions.timer;
}

bool VirtualNet::run(std::uint64_t max_events) {
  // Kick every station off at tick 0 (all Joins land in one wave).
  for (StationId id = 1; id <= stations_.size(); ++id)
    apply_station_actions(id, stations_[id - 1]->on_start(0));

  std::uint64_t processed = 0;
  while (processed < max_events) {
    const bool all_finished = [&] {
      if (!daemon_done_) return false;
      for (const StationMachine* s : stations_)
        if (!s->finished()) return false;
      return true;
    }();
    if (all_finished) return true;

    // Next tick: earliest pending datagram or due timer.
    Tick next = kTickInfinity;
    if (head_ < queue_.size()) next = queue_[head_].time;
    for (const auto& t : timers_)
      if (t && *t < next) next = *t;
    if (next == kTickInfinity) return false;  // deadlock
    AM_CHECK(next >= now_);
    now_ = next;

    // Drain the tick: station deliveries, then due station timers, then
    // the daemon's wave — repeating, because zero-latency replies land
    // back in the same tick.
    bool progressed = true;
    while (progressed && processed < max_events) {
      progressed = false;

      // Station-bound datagrams at now_, in (time, seq) arrival order.
      while (due(/*to_station=*/true)) {
        const Event ev = pop();
        ++processed;
        progressed = true;
        apply_station_actions(
            ev.station,
            stations_[ev.station - 1]->on_datagram(now_, buffers_[ev.buffer]));
        free_.push_back(ev.buffer);
      }

      // Due station timers (deliveries above may have re-armed them).
      for (StationId id = 1; id <= stations_.size(); ++id) {
        auto& t = timers_[id - 1];
        if (t && *t <= now_) {
          t.reset();
          ++processed;
          progressed = true;
          apply_station_actions(id, stations_[id - 1]->on_timer(now_));
        }
      }

      // All daemon-bound datagrams of this tick form one wave.
      if (due(/*to_station=*/false)) {
        std::size_t wave = 0;
        while (due(/*to_station=*/false)) {
          const std::uint32_t buffer = pop().buffer;
          if (wave == batch_.size()) batch_.emplace_back();
          batch_[wave++].swap(buffers_[buffer]);
          free_.push_back(buffer);
        }
        ++processed;
        progressed = true;
        const DaemonActions& acts =
            daemon_.on_batch(now_, {batch_.data(), wave});
        if (acts.done) daemon_done_ = true;
        for (const Outgoing& o : acts.sends)
          dispatch(o.to, /*to_station=*/true, acts.datagram(o));
      }
    }
  }
  return false;
}

VirtualRunReport run_virtual(const analysis::RunSpec& spec,
                             const VirtualRunOptions& opt) {
  DaemonConfig dc;
  dc.spec = spec;
  dc.chunks = opt.chunks;
  dc.stability = opt.stability;
  Daemon daemon(dc);

  std::vector<std::unique_ptr<StationMachine>> machines;
  machines.reserve(spec.n);
  for (StationId id = 1; id <= spec.n; ++id) {
    StationConfig sc;
    sc.id = id;
    sc.name = "station-" + std::to_string(id);
    sc.retry_ticks = opt.retry_ticks;
    sc.max_retries = opt.max_retries;
    machines.push_back(std::make_unique<StationMachine>(sc));
  }
  std::vector<StationMachine*> ptrs;
  for (auto& m : machines) ptrs.push_back(m.get());

  VirtualNet net(daemon, ptrs, opt.knobs);
  VirtualRunReport report;
  report.completed = net.run(opt.max_events);
  for (const auto& m : machines)
    report.station_exit_max = std::max(report.station_exit_max, m->exit_code());
  report.daemon_failed = daemon.failed();
  report.reason = daemon.reason();
  report.stats = daemon.stats();
  report.channel = daemon.live_channel_stats();
  report.energy = daemon.energy_meter();
  report.trace = daemon.trace().slots();
  report.samples = daemon.backlog_samples();
  if (!report.samples.empty()) report.verdict = daemon.verdict();
  return report;
}

}  // namespace asyncmac::live
