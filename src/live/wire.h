// asyncmac/live/wire.h
//
// Datagram codec of the live-channel protocol (docs/LIVE.md). Unlike the
// sweep wire (a stream protocol with incremental reassembly), live mode
// speaks UDP: one datagram carries exactly one message, so the codec is a
// single-shot encode/decode pair with no streaming state. A datagram is
// the 21-byte header the sweep wire uses (snapshot/frame.h) with magic
// "AMLD", version kLiveWireVersion and at most kMaxDatagramPayload
// payload bytes.
//
// Live mode sends four datagrams per slot, so the codec works on storage
// the caller keeps. encode(m, out) builds the datagram in `out`'s buffer:
// snapshot::frame_writer takes it, reserved to the message's exact size,
// the payload is written after the header room, and snapshot::seal_frame
// fills the header in place and hands the buffer back. decode(data, size,
// out) refills a Msg the same way, reusing its name and injection
// storage. So once a buffer and a Msg have held a datagram that large,
// neither direction allocates or copies a payload. The value-returning
// forms wrap these two for tests and cold paths. The exact bytes are
// pinned by LiveWire.EncodedBytesArePinned.
//
// The decoder is strict: short datagrams, bad magic/version/type, length
// mismatches, CRC failures and trailing payload bytes all raise a typed
// snapshot::SnapshotError and never undefined behaviour — a live daemon
// is exposed to whatever a socket delivers (pinned by tests/test_live_wire
// under ASan/UBSan). The daemon drops malformed datagrams and keeps
// serving; it must never crash on network input.
//
// Versioning policy mirrors sweep/wire.h: kLiveWireVersion bumps on ANY
// schema change and peers refuse other versions — daemon and stations are
// binaries of one build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "snapshot/frame.h"
#include "util/types.h"

namespace asyncmac::live {

inline constexpr std::uint32_t kLiveWireVersion = 1;
inline constexpr std::uint8_t kDatagramMagic[4] = {'A', 'M', 'L', 'D'};
inline constexpr std::size_t kDatagramHeaderBytes =
    snapshot::kFrameHeaderBytes;
/// A feedback datagram carries at most one poll's worth of injections;
/// 60 KiB keeps every message within a single unfragmented-ish UDP
/// payload and bounds allocation from a corrupted length field.
inline constexpr std::uint64_t kMaxDatagramPayload = 60 * 1024;
/// Largest station count a live run takes. A Daemon refuses a spec above
/// it and a station drops a Welcome above it, so a forged Welcome cannot
/// size a station's state by an arbitrary u32.
inline constexpr std::uint32_t kMaxStations = 65536;

/// Message types of the daemon/station protocol. Values are wire-stable.
enum class MsgType : std::uint8_t {
  kJoin = 1,      ///< station -> daemon: register (retransmitted until Welcome)
  kWelcome = 2,   ///< daemon -> station: run parameters + t=0 injections
  kBoundary = 3,  ///< station -> daemon: protocol decided the next slot action
  kGrant = 4,     ///< daemon -> station: slot length for the announced slot
  kSlotEnd = 5,   ///< station -> daemon: slot timer expired
  kFeedback = 6,  ///< daemon -> station: channel feedback + new injections
  kFin = 7,       ///< daemon -> station: horizon reached (or fatal violation)
};

const char* to_string(MsgType t) noexcept;
bool known_type(std::uint8_t t) noexcept;

/// An injection delta shipped to the owning station (kWelcome/kFeedback).
struct InjectionDelta {
  Tick injected_at = 0;
  Tick cost = 0;
};

/// One decoded datagram. A single struct (rather than one per type) keeps
/// the codec flat; unused fields stay at their defaults and are not
/// encoded for types that do not carry them.
struct Msg {
  MsgType type = MsgType::kJoin;

  /// kJoin/kBoundary/kSlotEnd: sender. kWelcome: the id being confirmed.
  StationId station = 0;
  /// kJoin: station's display name. kWelcome: protocol registry name.
  /// kFin: human-readable reason ("horizon" or a violation description).
  std::string name;

  // kWelcome run parameters (the station builds its StationContext and
  // protocol instance from exactly these — nothing else crosses the wire).
  std::uint32_t n = 0;
  std::uint32_t bound_r = 0;
  std::uint64_t rng_seed = 0;
  Tick horizon_ticks = 0;

  /// kBoundary/kGrant/kSlotEnd/kFeedback: 1-based slot index.
  SlotIndex slot_index = 0;
  /// kBoundary: the action the protocol chose for this slot.
  SlotAction action = SlotAction::kListen;
  /// kGrant: adversary-chosen slot length in ticks.
  Tick length = 0;
  /// kFeedback.
  Feedback feedback = Feedback::kSilence;
  bool delivered = false;
  /// kFin: true on clean horizon completion, false on a protocol violation.
  bool ok = false;

  /// kWelcome/kFeedback: injections owned by the receiving station, in
  /// engine poll order. The station pushes them before popping a
  /// delivered packet — the exact queue-mutation order of sim::Engine.
  std::vector<InjectionDelta> injections;
};

/// Encode one message as a complete datagram (header + CRC + payload),
/// replacing `out`'s bytes and reusing its capacity.
void encode(const Msg& m, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode(const Msg& m);

/// Decode and validate one datagram into `out`, every field `out` held
/// before reset and its name and injection storage reused. Throws
/// snapshot::SnapshotError (kTruncated/kBadMagic/kBadVersion/kBadCrc/
/// kCorrupt) on any violation, leaving `out` valid but unspecified.
void decode(const std::uint8_t* data, std::size_t size, Msg& out);
Msg decode(std::span<const std::uint8_t> datagram);

}  // namespace asyncmac::live
