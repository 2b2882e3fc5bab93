// asyncmac/live/udp.h
//
// Real-socket transport for the live stack (docs/LIVE.md): a poll()-based
// UDP event loop around the sans-IO Daemon and StationMachine. All
// protocol logic lives in those machines; this layer only moves datagrams
// and converts wall time to ticks.
//
// Clock mapping: each process anchors tick 0 at its own entry into the
// loop and converts monotonic elapsed microseconds to ticks via
// `unit_us` (wall microseconds per model time unit). Absolute ticks are
// never compared across processes — the daemon times arrivals on its own
// clock, stations only schedule relative durations — so the anchors need
// not agree, but `unit_us` must (it scales slot lengths to wall time).
//
// Emulation knobs (daemon side, applied to replies): probabilistic loss
// and fixed+uniform-jitter delay, seeded and deterministic in *decision*
// (which datagrams are dropped/delayed) though not in wall timing.
// They exist to exercise station retransmit paths over real sockets.
//
// Failure semantics: the daemon gives up (exit 1) after idle_timeout_ms
// without any datagram — a dead station set must not hang CI; stations
// give up via StationConfig::max_retries. Port 0 binds an ephemeral
// port; the bound port is reported through on_listening and port_file
// (written atomically via rename, so a polling reader never sees a
// partial write).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "live/daemon.h"
#include "live/station.h"

namespace asyncmac::live {

struct UdpServeOptions {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
  std::string port_file;   ///< when set, bound port is written here
  std::uint64_t unit_us = 1000;  ///< wall microseconds per time unit
  std::uint64_t idle_timeout_ms = 30000;
  /// Reply emulation knobs.
  double emu_loss = 0.0;
  std::uint64_t emu_delay_us = 0;
  std::uint64_t emu_jitter_us = 0;
  std::uint64_t emu_seed = 1;
  /// Called once the socket is bound (before the loop blocks).
  std::function<void(std::uint16_t)> on_listening;
};

/// Writes `port` and a newline to `path` atomically (a temporary file
/// renamed into place), so a polling reader sees nothing or the whole
/// line. Returns false, with `error` (optional) describing the failure,
/// when the file cannot be written. `serve_udp` and the CLI's `serve`
/// both report their bound port through it.
bool write_port_file(const std::string& path, std::uint16_t port,
                     std::string* error = nullptr);

/// Drive `daemon` over UDP until the run completes. Returns 0 on a clean
/// horizon completion, 1 on failure (bind error, idle timeout, poisoned
/// run); `error` (optional) receives a description. The caller reads
/// stats/trace/verdict from the daemon afterwards.
int serve_udp(Daemon& daemon, const UdpServeOptions& opt,
              std::string* error = nullptr);

struct UdpStationOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t unit_us = 1000;
  StationConfig station;
};

/// Run one station client against a live daemon. Returns the machine's
/// exit code (0 clean Fin, 1 poisoned run or lost daemon).
int run_station_udp(const UdpStationOptions& opt, std::string* error = nullptr);

}  // namespace asyncmac::live
