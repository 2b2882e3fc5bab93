// asyncmac/snapshot/frame.h
//
// The 21-byte message-frame header shared by the distributed-sweep wire
// ("AMWP", sweep/wire.h) and the live-channel datagrams ("AMLD",
// live/wire.h):
//
//   offset  size  field
//   0       4     magic
//   4       4     version (u32 LE)
//   8       1     message type
//   9       8     payload length (u64 LE, <= the format's cap)
//   17      4     CRC-32 of the payload (u32 LE)
//   21      ...   payload (snapshot::Writer encoding)
//
// Each format keeps its own magic, version, payload cap and message
// types (a FrameFormat); this file encodes and validates the header they
// share. Every violation is a typed SnapshotError: kBadMagic,
// kBadVersion, kCorrupt (unknown type, oversized length) or kBadCrc.
// Framing the header onto a stream or a datagram (kTruncated) stays with
// each format.
//
// A frame is built in one buffer: frame_writer() leaves kFrameHeaderBytes
// of header room, the payload is written after it, and seal_frame()
// fills the header in place. seal_frame is the only header writer of
// both wires; encode_frame copies a payload some caller already holds
// into header room and seals it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snapshot/io.h"

namespace asyncmac::snapshot {

inline constexpr std::size_t kFrameHeaderBytes = 21;

struct FrameFormat {
  const std::uint8_t* magic;  ///< 4 bytes
  std::uint32_t version;
  std::uint64_t max_payload;
  bool (*known_type)(std::uint8_t) noexcept;
};

struct FrameHeader {
  std::uint8_t type = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

/// A Writer holding kFrameHeaderBytes of header room and `payload_bytes`
/// of room after it: a payload of at most that size is written without
/// reallocating. The Writer builds in `storage` (its bytes are
/// overwritten, its capacity kept), so a caller that hands back the
/// vector seal_frame returned builds its next frame without allocating.
Writer frame_writer(std::size_t payload_bytes = 0,
                    std::vector<std::uint8_t> storage = {});

/// Fill the header room of a frame_writer() buffer (magic, version, type,
/// payload length, payload CRC) and return the frame. Throws
/// SnapshotError(kCorrupt) on payloads above the format's cap.
std::vector<std::uint8_t> seal_frame(const FrameFormat& format,
                                     std::uint8_t type, Writer&& w);

/// Header + a copy of `payload` (frame_writer, copy, seal_frame).
std::vector<std::uint8_t> encode_frame(const FrameFormat& format,
                                       std::uint8_t type,
                                       const std::vector<std::uint8_t>& payload);

/// Validate the kFrameHeaderBytes at `header` field by field in offset
/// order: magic, version, type, payload length.
FrameHeader decode_frame_header(const FrameFormat& format,
                                const std::uint8_t* header);

/// kBadCrc unless the header.length bytes at `payload` match its CRC.
void check_frame_crc(const FrameHeader& header, const std::uint8_t* payload);

}  // namespace asyncmac::snapshot
