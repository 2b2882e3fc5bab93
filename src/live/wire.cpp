#include "live/wire.h"

#include <utility>

#include "snapshot/io.h"
#include "util/check.h"

namespace asyncmac::live {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

constexpr snapshot::FrameFormat kFormat{kDatagramMagic, kLiveWireVersion,
                                        kMaxDatagramPayload, known_type};

void encode_injections(snapshot::Writer& w,
                       const std::vector<InjectionDelta>& v) {
  w.u64(v.size());
  for (const auto& d : v) {
    w.i64(d.injected_at);
    w.i64(d.cost);
  }
}

/// Appends to `v` (reset() left it empty).
void decode_injections(snapshot::Reader& r, std::vector<InjectionDelta>& v) {
  const std::uint64_t count = r.count(16);
  v.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    InjectionDelta d;
    d.injected_at = r.i64();
    d.cost = r.i64();
    v.push_back(d);
  }
}

/// Every field of `m` back to its default, the storage of its name and
/// injections kept for the decode that refills them.
void reset(Msg& m) {
  Msg fresh;
  fresh.name = std::move(m.name);
  fresh.injections = std::move(m.injections);
  fresh.name.clear();
  fresh.injections.clear();
  m = std::move(fresh);
}

SlotAction decode_action(std::uint8_t v) {
  switch (v) {
    case 0: return SlotAction::kListen;
    case 1: return SlotAction::kTransmitPacket;
    case 2: return SlotAction::kTransmitControl;
  }
  throw SnapshotError(ErrorKind::kCorrupt, "unknown slot action");
}

std::uint8_t encode_action(SlotAction a) {
  switch (a) {
    case SlotAction::kListen: return 0;
    case SlotAction::kTransmitPacket: return 1;
    case SlotAction::kTransmitControl: return 2;
  }
  AM_CHECK_MSG(false, "unreachable slot action");
  return 0;
}

Feedback decode_feedback(std::uint8_t v) {
  switch (v) {
    case 0: return Feedback::kSilence;
    case 1: return Feedback::kBusy;
    case 2: return Feedback::kAck;
  }
  throw SnapshotError(ErrorKind::kCorrupt, "unknown feedback");
}

std::uint8_t encode_feedback(Feedback f) {
  switch (f) {
    case Feedback::kSilence: return 0;
    case Feedback::kBusy: return 1;
    case Feedback::kAck: return 2;
  }
  AM_CHECK_MSG(false, "unreachable feedback");
  return 0;
}

/// Exact encoded payload size of `m`: frame_writer sizes the buffer to
/// it, so a datagram costs at most one allocation, none in a buffer that
/// held one as large.
std::size_t payload_bytes(const Msg& m) {
  const std::size_t name = 8 + m.name.size();
  const std::size_t injections = 8 + 16 * m.injections.size();
  switch (m.type) {
    case MsgType::kJoin: return 4 + name;
    case MsgType::kWelcome: return 4 + name + 4 + 4 + 8 + 8 + injections;
    case MsgType::kBoundary: return 4 + 8 + 1;
    case MsgType::kGrant: return 8 + 8;
    case MsgType::kSlotEnd: return 4 + 8;
    case MsgType::kFeedback: return 8 + 1 + 1 + injections;
    case MsgType::kFin: return 1 + name;
  }
  return 0;
}

}  // namespace

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kJoin: return "join";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kBoundary: return "boundary";
    case MsgType::kGrant: return "grant";
    case MsgType::kSlotEnd: return "slot-end";
    case MsgType::kFeedback: return "feedback";
    case MsgType::kFin: return "fin";
  }
  return "?";
}

bool known_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(MsgType::kJoin) &&
         t <= static_cast<std::uint8_t>(MsgType::kFin);
}

void encode(const Msg& m, std::vector<std::uint8_t>& out) {
  snapshot::Writer w =
      snapshot::frame_writer(payload_bytes(m), std::move(out));
  switch (m.type) {
    case MsgType::kJoin:
      w.u32(m.station);
      w.str(m.name);
      break;
    case MsgType::kWelcome:
      w.u32(m.station);
      w.str(m.name);
      w.u32(m.n);
      w.u32(m.bound_r);
      w.u64(m.rng_seed);
      w.i64(m.horizon_ticks);
      encode_injections(w, m.injections);
      break;
    case MsgType::kBoundary:
      w.u32(m.station);
      w.u64(m.slot_index);
      w.u8(encode_action(m.action));
      break;
    case MsgType::kGrant:
      w.u64(m.slot_index);
      w.i64(m.length);
      break;
    case MsgType::kSlotEnd:
      w.u32(m.station);
      w.u64(m.slot_index);
      break;
    case MsgType::kFeedback:
      w.u64(m.slot_index);
      w.u8(encode_feedback(m.feedback));
      w.boolean(m.delivered);
      encode_injections(w, m.injections);
      break;
    case MsgType::kFin:
      w.boolean(m.ok);
      w.str(m.name);
      break;
  }
  out = snapshot::seal_frame(kFormat, static_cast<std::uint8_t>(m.type),
                            std::move(w));
}

std::vector<std::uint8_t> encode(const Msg& m) {
  std::vector<std::uint8_t> out;
  encode(m, out);
  return out;
}

void decode(const std::uint8_t* data, std::size_t size, Msg& m) {
  if (size < kDatagramHeaderBytes)
    throw SnapshotError(ErrorKind::kTruncated, "datagram shorter than header");
  const snapshot::FrameHeader h = snapshot::decode_frame_header(kFormat, data);
  if (size != kDatagramHeaderBytes + h.length)
    throw SnapshotError(ErrorKind::kTruncated,
                        "datagram size does not match payload length");
  const std::uint8_t* payload = data + kDatagramHeaderBytes;
  snapshot::check_frame_crc(h, payload);

  snapshot::Reader r(payload, static_cast<std::size_t>(h.length));
  reset(m);
  m.type = static_cast<MsgType>(h.type);
  switch (m.type) {
    case MsgType::kJoin:
      m.station = r.u32();
      r.str(m.name);
      break;
    case MsgType::kWelcome:
      m.station = r.u32();
      r.str(m.name);
      m.n = r.u32();
      m.bound_r = r.u32();
      m.rng_seed = r.u64();
      m.horizon_ticks = r.i64();
      decode_injections(r, m.injections);
      break;
    case MsgType::kBoundary:
      m.station = r.u32();
      m.slot_index = r.u64();
      m.action = decode_action(r.u8());
      break;
    case MsgType::kGrant:
      m.slot_index = r.u64();
      m.length = r.i64();
      break;
    case MsgType::kSlotEnd:
      m.station = r.u32();
      m.slot_index = r.u64();
      break;
    case MsgType::kFeedback:
      m.slot_index = r.u64();
      m.feedback = decode_feedback(r.u8());
      m.delivered = r.boolean();
      decode_injections(r, m.injections);
      break;
    case MsgType::kFin:
      m.ok = r.boolean();
      r.str(m.name);
      break;
  }
  r.expect_end();
}

Msg decode(std::span<const std::uint8_t> datagram) {
  Msg m;
  decode(datagram.data(), datagram.size(), m);
  return m;
}

}  // namespace asyncmac::live
