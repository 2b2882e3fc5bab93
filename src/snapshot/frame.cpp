#include "snapshot/frame.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace asyncmac::snapshot {

namespace {

std::uint64_t read_le(const std::uint8_t* p, int bytes) noexcept {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void write_le(std::uint8_t* p, std::uint64_t v, int bytes) noexcept {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    const FrameFormat& format, std::uint8_t type,
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() > format.max_payload)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "frame payload exceeds the format's cap");
  // One allocation per frame: live mode encodes a datagram every slot.
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  std::memcpy(out.data(), format.magic, 4);
  write_le(out.data() + 4, format.version, 4);
  out[8] = type;
  write_le(out.data() + 9, payload.size(), 8);
  write_le(out.data() + 17, crc32(payload.data(), payload.size()), 4);
  std::copy(payload.begin(), payload.end(), out.begin() + kFrameHeaderBytes);
  return out;
}

FrameHeader decode_frame_header(const FrameFormat& format,
                                const std::uint8_t* header) {
  if (std::memcmp(header, format.magic, 4) != 0)
    throw SnapshotError(ErrorKind::kBadMagic, "frame has the wrong magic");
  const auto version = static_cast<std::uint32_t>(read_le(header + 4, 4));
  if (version != format.version)
    throw SnapshotError(ErrorKind::kBadVersion,
                        "frame written by wire version " +
                            std::to_string(version));
  FrameHeader h;
  h.type = header[8];
  if (!format.known_type(h.type))
    throw SnapshotError(ErrorKind::kCorrupt,
                        "unknown message type " + std::to_string(h.type));
  h.length = read_le(header + 9, 8);
  if (h.length > format.max_payload)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "declared frame payload length is oversized");
  h.crc = static_cast<std::uint32_t>(read_le(header + 17, 4));
  return h;
}

void check_frame_crc(const FrameHeader& header, const std::uint8_t* payload) {
  if (crc32(payload, static_cast<std::size_t>(header.length)) != header.crc)
    throw SnapshotError(ErrorKind::kBadCrc, "frame payload checksum mismatch");
}

}  // namespace asyncmac::snapshot
