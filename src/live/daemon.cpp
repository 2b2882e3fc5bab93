#include "live/daemon.h"

#include <algorithm>

#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"
#include "util/rng.h"

namespace asyncmac::live {

namespace {

// Write-only instruments (docs/OBSERVABILITY.md). Live mode is
// network-paced, not CPU-paced, so instruments are bumped directly — no
// batching like the engine hot loop needs.
struct LiveTelemetry {
  telemetry::Counter& rx =
      telemetry::Registry::global().counter("live.datagrams_rx");
  telemetry::Counter& tx =
      telemetry::Registry::global().counter("live.datagrams_tx");
  telemetry::Counter& late =
      telemetry::Registry::global().counter("live.late_packets");
  telemetry::Counter& decode_errors =
      telemetry::Registry::global().counter("live.decode_errors");
  telemetry::MaxGauge& drift =
      telemetry::Registry::global().gauge("live.slot_timer_drift");

  static LiveTelemetry& get() {
    static LiveTelemetry t;
    return t;
  }
};

// The spec's station count, checked before anything is sized by it: a
// station drops any Welcome above kMaxStations.
std::uint32_t checked_station_count(const analysis::RunSpec& spec) {
  AM_REQUIRE(spec.n <= kMaxStations,
             "live mode runs at most " + std::to_string(kMaxStations) +
                 " stations");
  return spec.n;
}

}  // namespace

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      n_(checked_station_count(cfg_.spec)),
      horizon_ticks_(cfg_.spec.horizon_units * kTicksPerUnit),
      max_slot_ticks_(static_cast<Tick>(cfg_.spec.bound_r) * kTicksPerUnit),
      channel_(cfg_.spec.restrained),
      metrics_(n_),
      meter_(n_) {
  AM_REQUIRE(cfg_.spec.horizon_units >= 1, "horizon must be positive");
  AM_REQUIRE(cfg_.chunks >= 1, "need at least one sampling chunk");
  AM_REQUIRE(cfg_.spec.prune_interval >= 1, "prune interval must be >= 1");

  // The same construction path as every engine; the protocol instances
  // it builds are dropped (stations own their automata).
  sim::EngineMaterials m = analysis::materials(cfg_.spec);
  policy_ = std::move(m.slot_policy);
  injector_ = std::move(m.injection);

  // Per-station protocol RNG seeds, drawn exactly as sim::Engine draws
  // them so a station's randomized protocol walks the same stream.
  util::Rng seeder(cfg_.spec.seed);
  rng_seeds_.reserve(n_);
  for (std::uint32_t i = 0; i < n_; ++i) rng_seeds_.push_back(seeder.next());

  mirrors_.resize(n_);
  sample_step_ = horizon_ticks_ / cfg_.chunks;
  AM_REQUIRE(sample_step_ >= 1, "horizon too short for the chunk count");
}

Daemon::Mirror& Daemon::mirror(StationId id) {
  AM_CHECK(id >= 1 && id <= n_);
  return mirrors_[id - 1];
}

std::size_t Daemon::queue_size(StationId station) const {
  AM_CHECK(station >= 1 && station <= n_);
  return mirrors_[station - 1].queue.size();
}

Tick Daemon::queue_cost(StationId station) const {
  AM_CHECK(station >= 1 && station <= n_);
  return mirrors_[station - 1].queue_cost;
}

Tick Daemon::fixed_slot_length(StationId station) const {
  return policy_->fixed_length(station);
}

analysis::Verdict Daemon::verdict() const {
  return analysis::classify_backlog_samples(samples_, cfg_.stability);
}

void Daemon::send(StationId to, const Msg& m, DaemonActions& out, bool cache) {
  std::vector<std::uint8_t> bytes = encode(m);
  if (cache) mirror(to).last_reply = bytes;
  out.sends.push_back({to, std::move(bytes)});
  LiveTelemetry::get().tx.add();
}

void Daemon::resend_cached(StationId to, DaemonActions& out) {
  Mirror& m = mirror(to);
  LiveTelemetry::get().late.add();
  if (m.last_reply.empty()) return;
  out.sends.push_back({to, m.last_reply});
  LiveTelemetry::get().tx.add();
}

void Daemon::poll_injections(Tick t) {
  if (!injector_) return;
  injection_buffer_.clear();
  injector_->poll(t, *this, injection_buffer_);
  for (const sim::Injection& inj : injection_buffer_) {
    AM_CHECK_MSG(inj.time <= t, "injection in the future");
    AM_CHECK_MSG(inj.time >= last_injection_time_,
                 "injection times must be non-decreasing");
    AM_CHECK(inj.station >= 1 && inj.station <= n_);
    AM_CHECK_MSG(inj.cost >= kTicksPerUnit && inj.cost <= max_slot_ticks_,
                 "packet cost must lie in [1, R] time units");
    last_injection_time_ = inj.time;
    Mirror& m = mirrors_[inj.station - 1];
    sim::Packet p;
    p.seq = next_seq_++;
    p.station = inj.station;
    p.injected_at = inj.time;
    p.cost = inj.cost;
    m.queue.push_back(p);
    m.queue_cost += p.cost;
    m.pending.push_back({inj.time, inj.cost});
    metrics_.on_injection(inj.station, inj.cost, t);
  }
}

void Daemon::record_samples_before(Tick t) {
  // probe_stability samples after running through each boundary, so a
  // boundary equal to the current wave time is sampled only once a later
  // wave (or completion) establishes that every event at it has settled.
  while (next_sample_ <= cfg_.chunks &&
         sample_step_ * next_sample_ < t) {
    samples_.push_back(metrics_.queued_cost());
    ++next_sample_;
  }
}

void Daemon::start_run(Tick t, DaemonActions& out) {
  started_ = true;
  // Packets injected at time 0 are visible to the very first decision —
  // the engine polls once in its constructor. Under the virtual clock t
  // is 0 here; over UDP it is the last Join's arrival.
  poll_injections(t);
  for (StationId id = 1; id <= n_; ++id) {
    Mirror& m = mirrors_[id - 1];
    Msg w;
    w.type = MsgType::kWelcome;
    w.station = id;
    w.name = cfg_.spec.protocol;
    w.n = n_;
    w.bound_r = cfg_.spec.bound_r;
    w.rng_seed = rng_seeds_[id - 1];
    w.horizon_ticks = horizon_ticks_;
    w.injections = std::move(m.pending);
    m.pending.clear();
    send(id, w, out);
  }
}

void Daemon::handle_join(Tick t, const Msg& m, DaemonActions& out) {
  Mirror& st = mirror(m.station);
  if (st.finned) {
    resend_cached(m.station, out);
    return;
  }
  if (!st.joined) {
    st.joined = true;
    ++joined_;
    if (joined_ == n_ && !started_) start_run(t, out);
    return;
  }
  // Duplicate Join. Before the station committed its first slot the
  // cached reply is its Welcome — resend it (the original was lost).
  // Afterwards the Join is stale noise.
  if (started_ && st.slot_index == 0) {
    resend_cached(m.station, out);
  } else {
    LiveTelemetry::get().late.add();
  }
}

bool Daemon::accept_slot_end(Tick t, const Msg& m, DaemonActions& out) {
  Mirror& st = mirror(m.station);
  if (!started_ || !st.joined || st.finned) {
    resend_cached(m.station, out);
    return false;
  }
  if (!st.awaiting_end || m.slot_index != st.slot_index) {
    // Already settled (Feedback lost) -> resend; anything else is stale.
    if (m.slot_index == st.slot_index && !st.awaiting_end) {
      resend_cached(m.station, out);
    } else {
      LiveTelemetry::get().late.add();
    }
    return false;
  }

  // The same horizon cut as Engine::run(until(H)): a slot whose nominal
  // end lies past the horizon is never settled; its transmission stays
  // registered but undecided, exactly like the engine's ledger.
  if (st.slot_end_granted > horizon_ticks_) {
    fin_station(m.station, /*ok=*/true, "horizon", out);
    return false;
  }

  const Tick nominal = st.slot_end_granted;
  const Tick drift = t >= nominal ? t - nominal : nominal - t;
  LiveTelemetry::get().drift.observe(static_cast<std::uint64_t>(drift));

  // The realized end is the SlotEnd's arrival tick (clamped to keep the
  // interval non-empty). Under the virtual clock arrival == nominal, so
  // the realized slot equals the engine's; over UDP the difference is
  // real-world timer drift, surfaced by the gauge above.
  Tick end = t;
  if (end <= st.slot_begin) end = st.slot_begin + 1;
  st.slot_close_end = end;
  st.awaiting_end = false;
  if (is_transmit(st.action)) channel_.close_tx(m.station, end);
  return true;
}

void Daemon::settle_slot(Tick t, StationId id, DaemonActions& out) {
  Mirror& st = mirror(id);
  // Engine step order: poll injections at the event, then feedback, then
  // delivery — an injector reacting to a delivery sees it only from the
  // next event on.
  poll_injections(t);
  const Feedback fb = channel_.feedback(st.slot_begin, st.slot_close_end);
  bool delivered = false;
  // Ownership check mirrors the engines: under a reject-mode restrained
  // channel the ack may belong to another station's transmission ending
  // inside this slot (ours never reached the medium).
  if (st.action == SlotAction::kTransmitPacket && fb == Feedback::kAck &&
      (!channel_.restrained().enabled() ||
       channel_.transmission_successful(id, st.slot_close_end))) {
    AM_CHECK_MSG(!st.queue.empty(), "delivery with empty mirror queue");
    const sim::Packet p = st.queue.front();
    st.queue.pop_front();
    st.queue_cost -= p.cost;
    delivered = true;
    last_successful_ = id;
    metrics_.on_delivery(id, p.cost, p.injected_at,
                         st.slot_close_end - st.slot_begin, t);
  }
  metrics_.on_slot_end(id, st.action);
  if (cfg_.spec.energy.enabled) {
    // Post-delivery mirror queue state — the engines' exact billing rule.
    if (is_transmit(st.action))
      meter_.add_transmit(id);
    else
      meter_.add_idle(id, st.queue.empty());
  }
  if (cfg_.spec.record_trace)
    trace_.record({id, st.slot_index, st.slot_begin, st.slot_close_end,
                   st.action, fb});

  Msg reply;
  reply.type = MsgType::kFeedback;
  reply.slot_index = st.slot_index;
  reply.feedback = fb;
  reply.delivered = delivered;
  reply.injections = std::move(st.pending);
  st.pending.clear();
  send(id, reply, out);

  ++settled_since_prune_;
}

void Daemon::handle_boundary(Tick t, const Msg& m, DaemonActions& out) {
  Mirror& st = mirror(m.station);
  if (!started_ || !st.joined || st.finned) {
    resend_cached(m.station, out);
    return;
  }
  if (m.slot_index == st.slot_index && st.awaiting_end) {
    // Grant lost; the station re-announced the same slot.
    resend_cached(m.station, out);
    return;
  }
  if (m.slot_index != st.slot_index + 1 || st.awaiting_end) {
    LiveTelemetry::get().late.add();
    return;
  }

  if (m.action == SlotAction::kTransmitPacket && st.queue.empty()) {
    fail_run("station " + std::to_string(m.station) +
                 " transmits with empty queue",
             out);
    return;
  }
  if (m.action == SlotAction::kTransmitControl && !cfg_.spec.allow_control) {
    fail_run("control message in a no-control model (station " +
                 std::to_string(m.station) + ")",
             out);
    return;
  }

  st.slot_index = m.slot_index;
  st.slot_begin = t;
  st.action = m.action;
  const Tick len =
      policy_->slot_length(m.station, st.slot_index, st.slot_begin, st.action);
  AM_CHECK_MSG(len >= kTicksPerUnit && len <= max_slot_ticks_,
               "slot policy returned length " << len << " outside [1, R]");
  st.slot_end_granted = st.slot_begin + len;
  st.awaiting_end = true;

  if (is_transmit(st.action)) {
    channel_.begin_tx(m.station, st.slot_begin,
                      st.action == SlotAction::kTransmitControl,
                      st.action == SlotAction::kTransmitControl
                          ? 0
                          : st.queue.front().seq);
  }

  Msg reply;
  reply.type = MsgType::kGrant;
  reply.slot_index = st.slot_index;
  reply.length = len;
  send(m.station, reply, out);
}

void Daemon::fin_station(StationId id, bool ok, const std::string& why,
                         DaemonActions& out) {
  Mirror& st = mirror(id);
  if (st.finned) return;
  st.finned = true;
  ++finned_;
  Msg fin;
  fin.type = MsgType::kFin;
  fin.ok = ok;
  fin.name = why;
  send(id, fin, out);
}

void Daemon::fail_run(const std::string& why, DaemonActions& out) {
  failed_ = true;
  reason_ = why;
  for (StationId id = 1; id <= n_; ++id)
    fin_station(id, /*ok=*/false, why, out);
}

void Daemon::maybe_prune() {
  if (settled_since_prune_ < cfg_.spec.prune_interval) return;
  settled_since_prune_ = 0;
  Tick horizon = kTickInfinity;
  for (const Mirror& m : mirrors_) horizon = std::min(horizon, m.slot_begin);
  channel_.prune_before(horizon);
}

void Daemon::check_done(DaemonActions& out) {
  if (done_ || finned_ < n_) return;
  done_ = true;
  out.done = true;
  // Backlog is constant after the last settled event; fill the remaining
  // chunk boundaries so the verdict sees the full series.
  while (next_sample_ <= cfg_.chunks) {
    samples_.push_back(metrics_.queued_cost());
    ++next_sample_;
  }
}

DaemonActions Daemon::on_batch(
    Tick now, const std::vector<std::vector<std::uint8_t>>& datagrams) {
  AM_CHECK_MSG(now >= now_, "wave times must not decrease");
  now_ = now;
  DaemonActions out;
  if (done_) {
    // The run is settled, but a station whose Fin datagram was lost keeps
    // retransmitting its last request until it gives up: stay idempotent
    // and re-serve the cached Fin so late stations still exit cleanly.
    out.done = true;
    for (const auto& bytes : datagrams) {
      Msg m;
      try {
        m = decode(bytes);
      } catch (const snapshot::SnapshotError&) {
        LiveTelemetry::get().decode_errors.add();
        continue;
      }
      LiveTelemetry::get().rx.add();
      if (m.station >= 1 && m.station <= n_) resend_cached(m.station, out);
    }
    return out;
  }

  record_samples_before(now);

  // Decode, validate addressing, split by type. Malformed or misdirected
  // datagrams are dropped (and counted); the daemon keeps serving.
  joins_.clear();
  ends_.clear();
  boundaries_.clear();
  settling_.clear();
  for (const auto& bytes : datagrams) {
    Msg m;
    try {
      m = decode(bytes);
    } catch (const snapshot::SnapshotError&) {
      LiveTelemetry::get().decode_errors.add();
      continue;
    }
    LiveTelemetry::get().rx.add();
    if (m.type != MsgType::kJoin && m.type != MsgType::kSlotEnd &&
        m.type != MsgType::kBoundary) {
      LiveTelemetry::get().late.add();  // not a station->daemon type
      continue;
    }
    if (m.station < 1 || m.station > n_) {
      LiveTelemetry::get().decode_errors.add();
      continue;
    }
    switch (m.type) {
      case MsgType::kJoin: joins_.push_back(std::move(m)); break;
      case MsgType::kSlotEnd: ends_.push_back(std::move(m)); break;
      default: boundaries_.push_back(std::move(m)); break;
    }
  }

  // Every phase walks its messages in ascending station order, matching
  // the engine's (end, station) event-heap tie-break. Waves usually
  // arrive in order already; the sort stays stable so a station's
  // retransmitted duplicates keep their arrival order.
  auto by_station = [](const Msg& a, const Msg& b) {
    return a.station < b.station;
  };
  for (std::vector<Msg>* wave : {&joins_, &ends_, &boundaries_})
    if (!std::is_sorted(wave->begin(), wave->end(), by_station))
      std::stable_sort(wave->begin(), wave->end(), by_station);

  for (const Msg& m : joins_) handle_join(now, m, out);

  // Phase A: close every ending transmission interval before any
  // feedback query — a query at t must see all ends <= t decided.
  for (const Msg& m : ends_) {
    if (done_) break;
    if (accept_slot_end(now, m, out)) settling_.push_back(m.station);
  }
  // Phase B: settle the ended slots.
  for (StationId id : settling_) {
    if (done_) break;
    settle_slot(now, id, out);
  }
  // Phase C: commit the announced next slots.
  for (const Msg& m : boundaries_) {
    if (done_ || failed_) break;
    handle_boundary(now, m, out);
  }

  maybe_prune();
  check_done(out);
  return out;
}

}  // namespace asyncmac::live
