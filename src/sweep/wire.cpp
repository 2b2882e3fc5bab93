#include "sweep/wire.h"

#include <utility>

namespace asyncmac::sweep {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

constexpr snapshot::FrameFormat kFormat{kFrameMagic, kWireVersion,
                                        kMaxFramePayload, known_type};

}  // namespace

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kRequestWork: return "request-work";
    case MsgType::kAssign: return "assign";
    case MsgType::kResult: return "result";
    case MsgType::kResultAck: return "result-ack";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kNoWork: return "no-work";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool known_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kShutdown);
}

std::vector<std::uint8_t> seal_frame(MsgType type, snapshot::Writer&& w) {
  return snapshot::seal_frame(kFormat, static_cast<std::uint8_t>(type),
                              std::move(w));
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  return snapshot::encode_frame(kFormat, static_cast<std::uint8_t>(type),
                                payload);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  buf_.insert(buf_.end(), data, data + n);
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, keeping
  // feed() amortized O(bytes).
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  try {
    // Header fields are validated the moment the header is complete — a
    // garbage stream fails fast instead of waiting for a phantom payload
    // length to "arrive".
    const snapshot::FrameHeader header = snapshot::decode_frame_header(kFormat, h);
    if (buffered() < kFrameHeaderBytes + header.length) return std::nullopt;
    const std::uint8_t* payload = h + kFrameHeaderBytes;
    snapshot::check_frame_crc(header, payload);

    Frame f;
    f.type = static_cast<MsgType>(header.type);
    f.payload.assign(payload, payload + header.length);
    pos_ += kFrameHeaderBytes + static_cast<std::size_t>(header.length);
    compact();
    return f;
  } catch (const SnapshotError& e) {
    poisoned_ = true;
    poison_kind_ = e.kind();
    throw;
  }
}

void FrameDecoder::at_eof() const {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  if (buffered() != 0)
    throw SnapshotError(ErrorKind::kTruncated,
                        "stream severed mid-frame (partial frame buffered)");
}

}  // namespace asyncmac::sweep
