#include "snapshot/frame.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

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

Writer frame_writer(std::size_t payload_bytes) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kFrameHeaderBytes + payload_bytes);
  buf.resize(kFrameHeaderBytes);
  return Writer(std::move(buf));
}

std::vector<std::uint8_t> seal_frame(const FrameFormat& format,
                                     std::uint8_t type, Writer&& w) {
  std::vector<std::uint8_t> out = w.take();
  if (out.size() < kFrameHeaderBytes)
    throw std::logic_error("seal_frame needs a frame_writer() buffer");
  const std::size_t length = out.size() - kFrameHeaderBytes;
  if (length > format.max_payload)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "frame payload exceeds the format's cap");
  std::uint8_t* h = out.data();
  std::memcpy(h, format.magic, 4);
  write_le(h + 4, format.version, 4);
  h[8] = type;
  write_le(h + 9, length, 8);
  write_le(h + 17, crc32(h + kFrameHeaderBytes, length), 4);
  return out;
}

std::vector<std::uint8_t> encode_frame(
    const FrameFormat& format, std::uint8_t type,
    const std::vector<std::uint8_t>& payload) {
  Writer w = frame_writer(payload.size());
  w.bytes(payload.data(), payload.size());
  return seal_frame(format, type, std::move(w));
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
