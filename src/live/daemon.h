// asyncmac/live/daemon.h
//
// Sans-IO channel-emulator daemon of live mode (docs/LIVE.md). The daemon
// owns the base-station view of a run: the channel (a channel::Window,
// the engine's implementation of the channel rules), the slot-length
// adversary, the injection adversary, the metrics collector, the trace
// recorder and the backlog samples the stability verdict is computed
// from. Stations own nothing but their protocol automaton — every
// observable (feedback, injections, slot grants) crosses the wire.
//
// The daemon is a pure state machine: the transport (live/virtual_net.h
// for deterministic tests, live/udp.h for real sockets) hands it batches
// of datagrams that arrived at one tick, and it returns the datagrams to
// send in an outbox it owns and reuses. No sockets, clocks or threads in
// here.
//
// ## Wave processing and sim-equivalence
//
// A batch ("wave") at tick t is processed in three phases, each walking
// its messages in ascending station order:
//   A. close — every SlotEnd's transmission interval is closed at t
//      (so feedback queries in phase B see all ends <= t decided);
//   B. settle — per ending slot: poll the injection adversary, query
//      feedback, apply delivery, record metrics/trace, reply Feedback;
//   C. commit — per Boundary: fix the next slot's begin at t, ask the
//      slot policy for its length, register the transmission, reply
//      Grant.
// A transmission's end is its SlotEnd arrival, so phase C adds it to the
// window as an open entry and phase A closes it (every transmission
// beginning before t was added by an earlier wave, as Window::close
// requires). Taking the unknown end as +inf is exact: phase A closes
// every end <= t before phase B answers a feedback query at t, so an
// open entry is really on air then.
// This reproduces sim::Engine's per-event loop exactly when datagrams
// arrive at their nominal times: the engine processes slot-end events in
// (end, station) order, polls before feedback, and registers the next
// slot at the same event — phase C's begins at t cannot affect phase B's
// feedback for slots ending at t (half-open intervals), and the poll /
// begin interleaving difference is unobservable to every injector (none
// reads channel_stats()). The virtual-clock differential pins this:
// identical feedback sequences, stats, trace and verdict vs sim::Engine
// (tests/test_live_differential.cpp).
//
// ## Loss and reordering
//
// Replies are idempotent: the last datagram sent to each station is
// cached, and a retransmitted Join/Boundary/SlotEnd for an
// already-settled step resends the cache (counted as live.late_packets).
// Stale or out-of-window indices are dropped. Malformed datagrams are
// dropped and counted — a live daemon must never crash on socket bytes.
//
// ## Failure semantics
//
// A station that violates the protocol (transmit with an empty mirror
// queue, control slot in a no-control model, boundary while a slot is
// open) poisons the run: every station receives Fin{ok=false, reason}
// and the daemon reports failure. Horizon completion sends
// Fin{ok=true, "horizon"} per station once its next slot would end past
// the horizon — the same cut sim::Engine::run(until(H)) makes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/run_spec.h"
#include "analysis/stability.h"
#include "channel/window.h"
#include "energy/meter.h"
#include "live/wire.h"
#include "metrics/collector.h"
#include "sim/injection.h"
#include "sim/packet.h"
#include "sim/slot_policy.h"
#include "trace/recorder.h"
#include "util/types.h"

namespace asyncmac::live {

struct DaemonConfig {
  /// The run being emulated — the same declarative spec the engine,
  /// checkpoints and the CLI share. horizon_units bounds the run;
  /// record_trace enables the recorder; prune_interval paces channel
  /// pruning (in processed slot ends).
  analysis::RunSpec spec;
  /// Backlog sampling for the stability verdict: queued cost is sampled
  /// at `chunks` equal boundaries of the horizon, exactly like
  /// analysis::probe_stability, and classified with the same procedure.
  int chunks = 8;
  analysis::StabilityConfig stability;
};

/// A datagram addressed to one station (the transport owns the mapping
/// from StationId to socket address / machine instance): `size` bytes at
/// `offset` in its DaemonActions::bytes.
struct Outgoing {
  StationId to = kInvalidStation;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// The daemon's outbox for one wave. on_batch clears it, keeping its
/// capacity, so a steady run sends without allocating.
struct DaemonActions {
  std::vector<Outgoing> sends;
  std::vector<std::uint8_t> bytes;  ///< the wave's datagrams, back to back
  /// One entry per input datagram: the station id it carries when it
  /// decoded with an id in 1..n (whatever its type), else kInvalidStation.
  /// A transport learns each station's address from these.
  std::vector<StationId> senders;
  bool done = false;  ///< all stations finned (or the run failed)

  std::span<const std::uint8_t> datagram(const Outgoing& o) const {
    return {bytes.data() + o.offset, o.size};
  }
};

class Daemon : public sim::EngineView {
 public:
  /// Throws std::invalid_argument on unknown protocol/policy/injector
  /// names or degenerate parameters (same factories as the engine path).
  explicit Daemon(DaemonConfig cfg);

  /// Process every datagram that arrived at tick `now` (non-decreasing
  /// across calls). The transport must batch same-tick arrivals: the
  /// wave phases rely on seeing all of a tick's SlotEnds together. The
  /// outbox returned is the daemon's own: valid until the next call.
  const DaemonActions& on_batch(
      Tick now, std::span<const std::vector<std::uint8_t>> datagrams);

  bool done() const noexcept { return done_; }
  /// True when the run ended on a protocol violation instead of the
  /// horizon; reason() describes it.
  bool failed() const noexcept { return failed_; }
  const std::string& reason() const noexcept { return reason_; }

  const metrics::RunStats& stats() const noexcept { return metrics_.stats(); }
  const channel::LedgerStats& live_channel_stats() const noexcept {
    return channel_.stats();
  }
  const trace::Recorder& trace() const noexcept { return trace_; }
  /// Per-station energy slot counts (all-zero unless spec.energy.enabled).
  const energy::EnergyMeter& energy_meter() const noexcept { return meter_; }
  const std::vector<Tick>& backlog_samples() const noexcept { return samples_; }
  /// Valid once done(): the same verdict probe_stability would emit for
  /// these samples.
  analysis::Verdict verdict() const;

  Tick horizon_ticks() const noexcept { return horizon_ticks_; }
  std::uint32_t station_count() const noexcept { return n_; }
  bool started() const noexcept { return started_; }

  // sim::EngineView (the injection adversary's window on the run).
  Tick now() const override { return now_; }
  std::uint32_t n() const override { return n_; }
  std::uint32_t bound_r() const override { return cfg_.spec.bound_r; }
  std::size_t queue_size(StationId station) const override;
  Tick queue_cost(StationId station) const override;
  const channel::LedgerStats& channel_stats() const override {
    return channel_.stats();
  }
  StationId last_successful_station() const override { return last_successful_; }
  Tick fixed_slot_length(StationId station) const override;

 private:
  /// Mirror of one station's engine-side state. The daemon replays the
  /// queue mutations the engine would make (poll pushes, delivery pops),
  /// so packet seqs here are the engine's real seqs; the station's own
  /// context sees seq 0, which no protocol can observe.
  struct Mirror {
    bool joined = false;
    bool finned = false;
    std::deque<sim::Packet> queue;
    Tick queue_cost = 0;
    SlotIndex slot_index = 0;  ///< last committed slot (0 before the first)
    Tick slot_begin = 0;
    Tick slot_end_granted = 0;
    SlotAction action = SlotAction::kListen;
    bool awaiting_end = false;  ///< slot committed, SlotEnd not settled yet
    /// End actually used for the slot that just settled (arrival-clamped).
    Tick slot_close_end = 0;
    std::vector<InjectionDelta> pending;  ///< injections not yet shipped
    std::vector<std::uint8_t> last_reply;  ///< cache for idempotent resend
  };

  Mirror& mirror(StationId id);
  /// Decode one datagram of the wave into received_ and record its entry
  /// in out.senders; nullptr (counted) when it is malformed.
  const Msg* receive(std::span<const std::uint8_t> bytes, DaemonActions& out);
  void handle_join(Tick t, const Msg& m, DaemonActions& out);
  void start_run(Tick t, DaemonActions& out);
  bool accept_slot_end(Tick t, const Msg& m, DaemonActions& out);
  void settle_slot(Tick t, StationId id, DaemonActions& out);
  void handle_boundary(Tick t, const Msg& m, DaemonActions& out);
  void poll_injections(Tick t);
  void record_samples_before(Tick t);
  void fin_station(StationId id, bool ok, const std::string& why,
                   DaemonActions& out);
  void fail_run(const std::string& why, DaemonActions& out);
  void maybe_prune();
  void check_done(DaemonActions& out);
  void send(StationId to, const Msg& m, DaemonActions& out);
  void resend_cached(StationId to, DaemonActions& out);
  void append(StationId to, const std::vector<std::uint8_t>& datagram,
              DaemonActions& out);

  DaemonConfig cfg_;
  std::uint32_t n_;
  Tick horizon_ticks_;
  Tick max_slot_ticks_;
  std::unique_ptr<sim::SlotPolicy> policy_;
  std::unique_ptr<sim::InjectionPolicy> injector_;
  channel::Window channel_;
  metrics::Collector metrics_;
  energy::EnergyMeter meter_;
  trace::Recorder trace_;
  std::vector<Mirror> mirrors_;
  std::vector<std::uint64_t> rng_seeds_;  ///< per-station, engine order
  std::vector<sim::Injection> injection_buffer_;

  Tick now_ = 0;
  bool started_ = false;
  bool done_ = false;
  bool failed_ = false;
  std::string reason_;
  std::uint32_t joined_ = 0;
  std::uint32_t finned_ = 0;
  StationId last_successful_ = kInvalidStation;
  PacketSeq next_seq_ = 1;
  Tick last_injection_time_ = 0;
  std::uint64_t settled_since_prune_ = 0;

  Tick sample_step_ = 0;
  int next_sample_ = 1;
  std::vector<Tick> samples_;

  /// Per-wave scratch, cleared (capacity kept) at each on_batch.
  DaemonActions out_;
  Msg received_;
  std::vector<Msg> joins_, ends_, boundaries_;
  std::vector<StationId> settling_;
};

}  // namespace asyncmac::live
