// asyncmac/live/virtual_net.h
//
// Deterministic virtual-clock transport for the live stack: the daemon
// and a set of in-process StationMachines exchange datagrams through an
// event queue driven by a simulated tick clock, with no sockets and no
// wall time. Two jobs:
//
//   1. The sim-vs-live differential. With zero emulation knobs every
//      datagram is delivered at its send tick and every station timer
//      fires exactly on time, so the live stack replays a scenario
//      bit-identically to sim::Engine (tests/test_live_differential.cpp,
//      the live-smoke CI job's cmp).
//   2. Fault rehearsal. Seeded loss/delay/jitter knobs and scripted
//      per-datagram drops exercise the retransmit/dedup machinery
//      deterministically (tests/test_live_service.cpp) — the same
//      failure paths real UDP hits nondeterministically.
//
// Delivery discipline at a tick t: station-side events first (datagram
// deliveries, then due timers, in station order), then all daemon-bound
// datagrams of t as ONE batch — the wave the daemon's phase processing
// expects. A reply sent at t re-enters the same tick's cascade, so a
// zero-latency slot boundary fully settles before the clock advances.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/run_spec.h"
#include "analysis/stability.h"
#include "channel/ledger.h"
#include "energy/meter.h"
#include "live/daemon.h"
#include "live/station.h"
#include "metrics/run_stats.h"
#include "trace/recorder.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::live {

/// Network-emulation knobs, applied independently to every datagram in
/// both directions. All deterministic given the seed.
struct EmulationKnobs {
  double loss = 0.0;   ///< per-datagram drop probability
  Tick delay = 0;      ///< fixed one-way latency (ticks)
  Tick jitter = 0;     ///< extra uniform latency in [0, jitter] ticks
  std::uint64_t seed = 1;
};

class VirtualNet {
 public:
  /// `stations` are borrowed; index i must be the machine for station
  /// id i+1 and every station of the daemon's run must be present.
  VirtualNet(Daemon& daemon, std::vector<StationMachine*> stations,
             EmulationKnobs knobs = {});

  /// Script a drop: the `nth` datagram (0-based, counted per direction
  /// and station, after emulation-knob drops) addressed `to_station`
  /// (true: daemon->station, false: station->daemon) vanishes.
  void add_drop(bool to_station, StationId station, std::uint64_t nth);

  /// Drive the clock until the daemon reports done and every station
  /// machine finished. Returns false on deadlock (no pending events or
  /// timers while unfinished) or after max_events processed events.
  bool run(std::uint64_t max_events = 50'000'000);

  Tick now() const noexcept { return now_; }

 private:
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break within a tick
    StationId station = kInvalidStation;
    bool to_station = false;
    std::uint32_t buffer = 0;  ///< index into buffers_
  };
  /// Delivery order: (time, seq).
  struct EventEarlier {
    bool operator()(const Event& a, const Event& b) const {
      return a.time < b.time || (a.time == b.time && a.seq < b.seq);
    }
  };

  /// Queue a copy of `bytes`, in a recycled buffer, for delivery.
  void dispatch(StationId station, bool to_station,
                std::span<const std::uint8_t> bytes);
  /// True when the next event is due at now_ and goes the given way.
  bool due(bool to_station) const;
  /// Remove and return the next event.
  Event pop();
  void apply_station_actions(StationId id, StationMachine::Actions actions);
  Tick latency();

  Daemon& daemon_;
  std::vector<StationMachine*> stations_;
  std::vector<std::optional<Tick>> timers_;
  EmulationKnobs knobs_;
  util::Rng rng_;
  /// Pending events from head_ on, in delivery order. Without latency an
  /// event is due at its send tick and goes at the end; a delayed one is
  /// inserted in place.
  std::vector<Event> queue_;
  std::size_t head_ = 0;
  std::uint64_t next_event_seq_ = 0;
  /// Datagrams dispatched per station (index id - 1), one per direction.
  std::vector<std::uint64_t> sent_to_station_, sent_to_daemon_;
  std::map<std::pair<bool, StationId>, std::vector<std::uint64_t>> drops_;
  /// The bytes of every datagram in flight, and of delivered ones kept
  /// for reuse (their indices in free_). No cap: as many as were ever in
  /// flight at once.
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::vector<std::uint32_t> free_;
  /// The daemon's wave in its first entries, swapped in from buffers_:
  /// storage moves between the two and is never freed.
  std::vector<std::vector<std::uint8_t>> batch_;
  Tick now_ = 0;
  bool daemon_done_ = false;
};

/// Everything the CLI and the differential tests need from a completed
/// virtual-clock live run — the exact analogues of engine.stats(),
/// engine.channel_stats(), engine.trace().slots() and a probe's samples.
struct VirtualRunReport {
  bool completed = false;      ///< daemon done + all stations finished
  int station_exit_max = 0;    ///< max station exit code
  bool daemon_failed = false;  ///< run poisoned by a protocol violation
  std::string reason;
  metrics::RunStats stats;
  channel::LedgerStats channel;
  energy::EnergyMeter energy;  ///< all-zero unless spec.energy.enabled
  std::vector<trace::SlotRecord> trace;
  std::vector<Tick> samples;
  analysis::Verdict verdict = analysis::Verdict::kStable;
};

struct VirtualRunOptions {
  int chunks = 8;
  analysis::StabilityConfig stability;
  EmulationKnobs knobs;
  Tick retry_ticks = units(64);
  int max_retries = 25;
  std::uint64_t max_events = 50'000'000;
};

/// Run a whole scenario through daemon + n station machines over the
/// virtual clock. Throws std::invalid_argument on bad spec names (same
/// factories as the engine path).
VirtualRunReport run_virtual(const analysis::RunSpec& spec,
                             const VirtualRunOptions& opt = {});

}  // namespace asyncmac::live
