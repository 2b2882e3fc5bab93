// Tests for the live-mode datagram codec (live/wire.h): round-trips for
// every message type and typed SnapshotError rejection of malformed
// datagrams — a live daemon feeds raw socket bytes straight into
// decode(), so every corruption class must surface as a catchable typed
// error, never UB or an allocation bomb.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "live/wire.h"
#include "snapshot/io.h"
#include "sweep/protocol.h"

namespace asyncmac::live {
namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

ErrorKind decode_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)decode(bytes);
  } catch (const SnapshotError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode accepted a malformed datagram";
  return ErrorKind::kIo;
}

// ------------------------------------------------------------ round trips

TEST(LiveWire, JoinRoundTrip) {
  Msg m;
  m.type = MsgType::kJoin;
  m.station = 3;
  m.name = "station-3";
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.type, MsgType::kJoin);
  EXPECT_EQ(d.station, 3u);
  EXPECT_EQ(d.name, "station-3");
}

TEST(LiveWire, WelcomeRoundTrip) {
  Msg m;
  m.type = MsgType::kWelcome;
  m.station = 2;
  m.name = "ca-arrow";
  m.n = 4;
  m.bound_r = 3;
  m.rng_seed = 0xdeadbeefcafe1234ULL;
  m.horizon_ticks = 100 * kTicksPerUnit;
  m.injections = {{7, 2 * kTicksPerUnit}, {9 * kTicksPerUnit, kTicksPerUnit}};
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.type, MsgType::kWelcome);
  EXPECT_EQ(d.station, 2u);
  EXPECT_EQ(d.name, "ca-arrow");
  EXPECT_EQ(d.n, 4u);
  EXPECT_EQ(d.bound_r, 3u);
  EXPECT_EQ(d.rng_seed, 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(d.horizon_ticks, 100 * kTicksPerUnit);
  ASSERT_EQ(d.injections.size(), 2u);
  EXPECT_EQ(d.injections[0].injected_at, 7);
  EXPECT_EQ(d.injections[0].cost, 2 * kTicksPerUnit);
  EXPECT_EQ(d.injections[1].injected_at, 9 * kTicksPerUnit);
}

TEST(LiveWire, BoundaryRoundTrip) {
  for (const SlotAction a : {SlotAction::kListen, SlotAction::kTransmitPacket,
                             SlotAction::kTransmitControl}) {
    Msg m;
    m.type = MsgType::kBoundary;
    m.station = 1;
    m.slot_index = 42;
    m.action = a;
    const Msg d = decode(encode(m));
    EXPECT_EQ(d.slot_index, 42u);
    EXPECT_EQ(d.action, a);
  }
}

TEST(LiveWire, GrantRoundTrip) {
  Msg m;
  m.type = MsgType::kGrant;
  m.slot_index = 7;
  m.length = 3 * kTicksPerUnit;
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.slot_index, 7u);
  EXPECT_EQ(d.length, 3 * kTicksPerUnit);
}

TEST(LiveWire, SlotEndRoundTrip) {
  Msg m;
  m.type = MsgType::kSlotEnd;
  m.station = 5;
  m.slot_index = 99;
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.station, 5u);
  EXPECT_EQ(d.slot_index, 99u);
}

TEST(LiveWire, FeedbackRoundTrip) {
  for (const Feedback f :
       {Feedback::kSilence, Feedback::kBusy, Feedback::kAck}) {
    Msg m;
    m.type = MsgType::kFeedback;
    m.slot_index = 12;
    m.feedback = f;
    m.delivered = (f == Feedback::kAck);
    m.injections = {{55, kTicksPerUnit}};
    const Msg d = decode(encode(m));
    EXPECT_EQ(d.feedback, f);
    EXPECT_EQ(d.delivered, f == Feedback::kAck);
    ASSERT_EQ(d.injections.size(), 1u);
    EXPECT_EQ(d.injections[0].injected_at, 55);
  }
}

TEST(LiveWire, FinRoundTrip) {
  Msg m;
  m.type = MsgType::kFin;
  m.ok = false;
  m.name = "station 2 transmitted with an empty queue";
  const Msg d = decode(encode(m));
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.name, "station 2 transmitted with an empty queue");
}

// ------------------------------------------------------------ wire bytes

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

/// Hex of `m`'s datagram. The encoder reserves the exact datagram size,
/// so the buffer never grew past it.
std::string encoded_hex(const Msg& m) {
  const std::vector<std::uint8_t> bytes = encode(m);
  EXPECT_EQ(bytes.capacity(), bytes.size()) << to_string(m.type);
  return hex(bytes);
}

// Round trips cannot tell a changed encoder from a matching decoder
// change; these exact bytes can. One datagram of every live message type
// (variable-length fields filled) and one sweep frame, as the two-copy
// encoder with the bytewise CRC wrote them. Any diff here is a wire
// format change and must bump kLiveWireVersion / sweep::kWireVersion.
TEST(LiveWire, EncodedBytesArePinned) {
  const Tick U = kTicksPerUnit;
  Msg join;
  join.type = MsgType::kJoin;
  join.station = 3;
  join.name = "station-3";
  EXPECT_EQ(encoded_hex(join),
            "414d4c4401000000011500000000000000f3843e2d"  // header
            "03000000090000000000000073746174696f6e2d33");

  Msg welcome;
  welcome.type = MsgType::kWelcome;
  welcome.station = 2;
  welcome.name = "ca-arrow";
  welcome.n = 4;
  welcome.bound_r = 3;
  welcome.rng_seed = 0xdeadbeefcafe1234ULL;
  welcome.horizon_ticks = 100 * U;
  welcome.injections = {{7, 2 * U}, {9 * U, U}};
  EXPECT_EQ(encoded_hex(welcome),
            "414d4c44010000000254000000000000007c45db33"  // header
            "02000000080000000000000063612d6172726f770400000003000000"
            "3412fecaefbeadde40bb4b0400000000020000000000000007000000"
            "00000000a0fe150000000000d0f962000000000050ff0a0000000000");

  Msg boundary;
  boundary.type = MsgType::kBoundary;
  boundary.station = 1;
  boundary.slot_index = 42;
  boundary.action = SlotAction::kTransmitControl;
  EXPECT_EQ(encoded_hex(boundary),
            "414d4c4401000000030d0000000000000016f6332b"  // header
            "010000002a0000000000000002");

  Msg grant;
  grant.type = MsgType::kGrant;
  grant.slot_index = 7;
  grant.length = 3 * U;
  EXPECT_EQ(encoded_hex(grant),
            "414d4c440100000004100000000000000045f92cec"  // header
            "0700000000000000f0fd200000000000");

  Msg slot_end;
  slot_end.type = MsgType::kSlotEnd;
  slot_end.station = 5;
  slot_end.slot_index = 99;
  EXPECT_EQ(encoded_hex(slot_end),
            "414d4c4401000000050c00000000000000271612bd"  // header
            "050000006300000000000000");

  Msg feedback;
  feedback.type = MsgType::kFeedback;
  feedback.slot_index = 12;
  feedback.feedback = Feedback::kAck;
  feedback.delivered = true;
  feedback.injections = {{55, U}, {56 * U, 4 * U}};
  EXPECT_EQ(encoded_hex(feedback),
            "414d4c4401000000063200000000000000ffd50264"  // header
            "0c0000000000000002010200000000000000370000000000000050ff"
            "0a000000000080d967020000000040fd2b0000000000");

  Msg fin;
  fin.type = MsgType::kFin;
  fin.ok = true;
  fin.name = "horizon";
  EXPECT_EQ(encoded_hex(fin),
            "414d4c440100000007100000000000000044b71c4c"  // header
            "010700000000000000686f72697a6f6e");

  sweep::AssignMsg assign;
  assign.lease_id = 1;
  assign.unit_index = 2;
  assign.unit_id = 0x0123456789abcdefULL;
  assign.first = 16;
  assign.count = 8;
  EXPECT_EQ(hex(sweep::to_frame(assign)),
            "414d5750010000000428000000000000009f88b7ea"  // header
            "01000000000000000200000000000000efcdab896745230110000000"
            "000000000800000000000000");
}

// ------------------------------------------------------- malformed input

TEST(LiveWire, ShortDatagramIsTruncated) {
  std::vector<std::uint8_t> bytes(kDatagramHeaderBytes - 1, 0);
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
  EXPECT_EQ(decode_error({}), ErrorKind::kTruncated);
}

TEST(LiveWire, BadMagicIsRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[0] ^= 0xff;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadMagic);
}

TEST(LiveWire, BadVersionIsRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[4] = 0x7f;  // version LE byte 0
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadVersion);
}

TEST(LiveWire, UnknownTypeIsCorrupt) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[8] = 0xee;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
  bytes[8] = 0;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
}

TEST(LiveWire, TruncatedPayloadIsRejected) {
  Msg m;
  m.type = MsgType::kWelcome;
  m.name = "ca-arrow";
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.pop_back();
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
}

TEST(LiveWire, TrailingBytesAreRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.push_back(0x00);  // header length no longer matches
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
}

TEST(LiveWire, AbsurdPayloadLengthIsCorrupt) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  // Overwrite the u64 payload length (offset 9) with a huge value.
  for (std::size_t i = 0; i < 8; ++i) bytes[9 + i] = 0xff;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
}

TEST(LiveWire, FlippedPayloadByteFailsCrc) {
  Msg m;
  m.type = MsgType::kFeedback;
  m.slot_index = 3;
  m.feedback = Feedback::kAck;
  m.delivered = true;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.back() ^= 0x01;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadCrc);
}

/// Frame an arbitrary payload as a datagram of the given type, with a
/// correct length and CRC — the codec's header checks must all pass so
/// the payload-level validation is what rejects it.
std::vector<std::uint8_t> frame(MsgType type,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kDatagramHeaderBytes + payload.size());
  for (std::size_t i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(kDatagramMagic[i]));
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(kLiveWireVersion >> (8 * i)));
  out.push_back(static_cast<std::uint8_t>(type));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(payload.size()) >> (8 * i)));
  const std::uint32_t crc = snapshot::crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  for (const std::uint8_t b : payload) out.push_back(b);
  return out;
}

TEST(LiveWire, AbsurdInjectionCountIsCorrupt) {
  // A Feedback payload claiming ~2^63 injections must be rejected before
  // the decoder tries to reserve that much memory.
  snapshot::Writer w;
  w.u64(3);                       // slot_index
  w.u8(2);                        // feedback = ack
  w.boolean(true);                // delivered
  w.u64(0x7fffffffffffffffULL);   // injection count
  EXPECT_EQ(decode_error(frame(MsgType::kFeedback, w.buffer())),
            ErrorKind::kCorrupt);
}

TEST(LiveWire, BadEnumValuesAreCorrupt) {
  {
    snapshot::Writer w;
    w.u32(1);   // station
    w.u64(1);   // slot_index
    w.u8(9);    // not a SlotAction
    EXPECT_EQ(decode_error(frame(MsgType::kBoundary, w.buffer())),
              ErrorKind::kCorrupt);
  }
  {
    snapshot::Writer w;
    w.u64(1);   // slot_index
    w.u8(9);    // not a Feedback
    EXPECT_EQ(decode_error(frame(MsgType::kFeedback, w.buffer())),
              ErrorKind::kCorrupt);
  }
}

TEST(LiveWire, PayloadWithTrailingGarbageIsRejected) {
  // A well-formed Grant payload with one extra byte: header length and
  // CRC both match, so only the reader's end-of-payload check can catch
  // the mismatch (a shorter-than-claimed payload would mis-decode).
  snapshot::Writer w;
  w.u64(7);                   // slot_index
  w.i64(3 * kTicksPerUnit);   // length
  std::vector<std::uint8_t> payload = w.buffer();
  payload.push_back(0xab);
  EXPECT_THROW((void)decode(frame(MsgType::kGrant, payload)), SnapshotError);
}

}  // namespace
}  // namespace asyncmac::live
