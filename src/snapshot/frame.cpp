#include "snapshot/frame.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace asyncmac::snapshot {

Writer frame_writer(std::size_t payload_bytes,
                    std::vector<std::uint8_t> storage) {
  // Sized, not reserved: the payload overwrites the room in place, and a
  // reused buffer that already held as many bytes is not filled again.
  storage.resize(kFrameHeaderBytes + payload_bytes);
  return Writer(std::move(storage), kFrameHeaderBytes);
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
  store_le32(h + 4, format.version);
  h[8] = type;
  store_le64(h + 9, length);
  store_le32(h + 17, crc32(h + kFrameHeaderBytes, length));
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
  const std::uint32_t version = load_le32(header + 4);
  if (version != format.version)
    throw SnapshotError(ErrorKind::kBadVersion,
                        "frame written by wire version " +
                            std::to_string(version));
  FrameHeader h;
  h.type = header[8];
  if (!format.known_type(h.type))
    throw SnapshotError(ErrorKind::kCorrupt,
                        "unknown message type " + std::to_string(h.type));
  h.length = load_le64(header + 9);
  if (h.length > format.max_payload)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "declared frame payload length is oversized");
  h.crc = load_le32(header + 17);
  return h;
}

void check_frame_crc(const FrameHeader& header, const std::uint8_t* payload) {
  if (crc32(payload, static_cast<std::size_t>(header.length)) != header.crc)
    throw SnapshotError(ErrorKind::kBadCrc, "frame payload checksum mismatch");
}

}  // namespace asyncmac::snapshot
