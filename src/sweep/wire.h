// asyncmac/sweep/wire.h
//
// Framing layer of the distributed-sweep wire protocol
// (docs/DISTRIBUTED.md). Every message travels as one length-prefixed,
// CRC-guarded frame over an ordered byte stream (TCP or the in-process
// loopback transport): the 21-byte header live datagrams share
// (snapshot/frame.h) with magic "AMWP", version kWireVersion and at most
// kMaxFramePayload payload bytes (sweep/protocol.h encodes them).
//
// The decoder is incremental (bytes arrive in arbitrary chunks) and
// strict: every violation raises a typed snapshot::SnapshotError —
// kBadMagic / kBadVersion / kCorrupt (unknown type, oversized length) /
// kBadCrc / kTruncated (stream severed mid-frame) — and never undefined
// behaviour, no matter what a peer sends (pinned by tests/test_sweep_wire
// and the seed-replayable wire fuzzer, both run under ASan in CI).
//
// Versioning policy mirrors snapshot/format.h: kWireVersion bumps on ANY
// frame or payload schema change; peers refuse other versions. A sweep
// is a short-lived cooperation between binaries of one build — there is
// no cross-version negotiation by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "snapshot/frame.h"
#include "snapshot/io.h"

namespace asyncmac::sweep {

inline constexpr std::uint32_t kWireVersion = 1;
inline constexpr std::uint8_t kFrameMagic[4] = {'A', 'M', 'W', 'P'};
inline constexpr std::size_t kFrameHeaderBytes = snapshot::kFrameHeaderBytes;
/// Frames carry at most one work unit's records; 16 MiB is orders of
/// magnitude above any real payload and small enough that a corrupted
/// length field cannot drive allocation to OOM.
inline constexpr std::uint64_t kMaxFramePayload = 16ull * 1024 * 1024;

/// Message types of the coordinator/worker protocol (sweep/protocol.h
/// defines the payloads). Values are wire-stable.
enum class MsgType : std::uint8_t {
  kHello = 1,        ///< worker -> coordinator: join the sweep
  kWelcome = 2,      ///< coordinator -> worker: id + the job description
  kRequestWork = 3,  ///< worker -> coordinator: lease me a unit
  kAssign = 4,       ///< coordinator -> worker: leased work unit
  kResult = 5,       ///< worker -> coordinator: completed unit payload
  kResultAck = 6,    ///< coordinator -> worker: result merged (or duplicate)
  kHeartbeat = 7,    ///< worker -> coordinator: keep my leases alive
  kNoWork = 8,       ///< coordinator -> worker: nothing leasable right now
  kShutdown = 9,     ///< coordinator -> worker: sweep complete, disconnect
};

const char* to_string(MsgType t) noexcept;
bool known_type(std::uint8_t t) noexcept;

struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

/// Frame a payload written into a snapshot::frame_writer() buffer, in
/// place (sweep/protocol.h's encoders). Throws SnapshotError(kCorrupt) on
/// payloads above kMaxFramePayload.
std::vector<std::uint8_t> seal_frame(MsgType type, snapshot::Writer&& w);

/// Frame a copy of `payload` for the stream (header + CRC + payload).
/// Throws SnapshotError(kCorrupt) on payloads above kMaxFramePayload.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembly over an ordered byte stream. feed() any
/// chunking; next() yields complete validated frames in order. All
/// validation errors are typed SnapshotErrors; after a throw the decoder
/// is poisoned (the stream has lost sync) and every further call throws
/// the same kind — callers must sever the connection.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// The next complete frame, if one is buffered. Header fields are
  /// validated in offset order (magic, version, type, length) as soon as
  /// the header is complete; the payload CRC once the payload is.
  std::optional<Frame> next();

  /// Call when the peer closed the stream: a partially buffered frame
  /// means the connection was severed mid-frame -> kTruncated.
  void at_eof() const;

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
  snapshot::ErrorKind poison_kind_ = snapshot::ErrorKind::kCorrupt;
};

}  // namespace asyncmac::sweep
