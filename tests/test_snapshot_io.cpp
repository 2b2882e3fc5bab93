// The snapshot serialization and framing layer (snapshot/io.h,
// snapshot/format.h, snapshot/frame.h): scalar round-trips, strict
// truncation guards, the CRC-32 reference vector, the word codec and
// frame headers against a bytewise reference, and the corruption matrix —
// truncated files, flipped payload/CRC bytes, future-version headers,
// wrong kinds and bad magic must each raise the documented typed
// SnapshotError, never undefined behaviour (this suite also runs under
// ASan/UBSan and -march=native in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/format.h"
#include "snapshot/frame.h"
#include "snapshot/io.h"

namespace asyncmac {
namespace {

using snapshot::ErrorKind;
using snapshot::FileKind;
using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

/// EXPECT that `fn` throws SnapshotError with `kind`.
template <typename Fn>
void expect_kind(ErrorKind kind, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected SnapshotError(" << snapshot::to_string(kind) << ")";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Bytewise CRC-32 straight from the polynomial: no tables, so it shares
/// nothing with the slicing-by-8 implementation under test.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t len,
                              std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b)
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

/// Deterministic pseudo-random bytes (xorshift64).
std::vector<std::uint8_t> noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    b = static_cast<std::uint8_t>(seed >> 32);
  }
  return v;
}

TEST(SnapshotIo, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Offsets 0..7 start the eight-byte steps at every alignment; lengths
  // 0..257 cover empty input, tails of 0..7 bytes and many full steps.
  const std::vector<std::uint8_t> buf = noise(257 + 7, 0x9e3779b97f4a7c15ULL);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(snapshot::crc32(buf.data() + offset, len),
                reference_crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SnapshotIo, Crc32ChainsAtEverySplit) {
  const std::vector<std::uint8_t> buf = noise(64, 42);
  const std::uint32_t whole = reference_crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = snapshot::crc32(buf.data(), split);
    EXPECT_EQ(snapshot::crc32(buf.data() + split, buf.size() - split, head),
              whole)
        << "split " << split;
  }
}

TEST(SnapshotIo, Crc32ReferenceVectorAndChaining) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(snapshot::crc32(check, sizeof(check)), 0xCBF43926u);
  // Incremental chaining must equal the one-shot computation.
  const std::uint32_t head = snapshot::crc32(check, 4);
  EXPECT_EQ(snapshot::crc32(check + 4, 5, head), 0xCBF43926u);
  EXPECT_EQ(snapshot::crc32(check, 0), 0u);
}

TEST(SnapshotIo, ScalarAndStringRoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(255);
  w.u32(0xDEADBEEFu);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(-1);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.boolean(true);
  w.boolean(false);
  w.str("");
  w.str(std::string("nul\0inside", 10));
  const std::uint8_t blob[] = {9, 8, 7};
  w.bytes(blob, sizeof(blob));

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 255u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, persists
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  std::uint8_t out[3] = {};
  r.bytes(out, sizeof(out));
  EXPECT_EQ(out[0], 9u);
  EXPECT_EQ(out[2], 7u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotIo, TruncatedScalarReadsThrowTyped) {
  const std::uint8_t two[] = {1, 2};
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 2).u32(); });
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 2).u64(); });
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 0).u8(); });
  expect_kind(ErrorKind::kTruncated, [&] {
    std::uint8_t out[3];
    Reader(two, 2).bytes(out, 3);
  });
}

TEST(SnapshotIo, StringLengthGuard) {
  // A declared string length far beyond the input must throw kTruncated
  // up front, not attempt a giant allocation or read past the end.
  Writer w;
  w.u64(std::uint64_t{1} << 40);
  w.u8('x');
  expect_kind(ErrorKind::kTruncated, [&] { Reader(w.buffer()).str(); });
}

TEST(SnapshotIo, ExpectEndRejectsLeftoverBytes) {
  Writer w;
  w.u32(7);
  w.u8(0);  // schema drift: one byte the reader does not consume
  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  expect_kind(ErrorKind::kCorrupt, [&] { r.expect_end(); });
}

// ------------------------------------- word codec vs a bytewise reference

// The reference is the per-byte codec the word codec replaced: one
// push_back or shift per byte. It shares no code with snapshot/io.h, so
// the Writer, Reader and frame header are pinned to the same bytes.
void ref_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ref_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t ref_load(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double double_of(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// 0, 1, 2^k - 1, 2^k, 2^k + 1 for every k below the width, all-ones,
/// and seeded values.
std::vector<std::uint64_t> boundary_values(int width, std::uint64_t seed) {
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::vector<std::uint64_t> v = {0, 1, mask};
  for (int k = 1; k < width; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    v.insert(v.end(), {p - 1, p, p + 1});
  }
  const std::vector<std::uint8_t> rnd = noise(8 * 64, seed);
  for (std::size_t i = 0; i < rnd.size(); i += 8)
    v.push_back(ref_load(rnd.data() + i, 8) & mask);
  return v;
}

TEST(SnapshotCodec, ScalarsMatchTheBytewiseReference) {
  const std::vector<std::uint64_t> u32s = boundary_values(32, 3);
  const std::vector<std::uint64_t> u64s = boundary_values(64, 5);
  std::vector<std::int64_t> i64s = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    -1, 0, 1};
  for (const std::uint64_t u : u64s)
    i64s.push_back(static_cast<std::int64_t>(u));
  const std::vector<std::uint64_t> f64_bits = {
      bits_of(0.0), bits_of(-0.0), bits_of(1.0 / 3.0),
      bits_of(std::numeric_limits<double>::infinity()),
      bits_of(-std::numeric_limits<double>::infinity()),
      0x7ff8dead'beef0001ULL,  // a quiet NaN carrying a payload
      0x0000000000000001ULL,   // the smallest denormal
      0x000fffffffffffffULL,   // the largest denormal
      bits_of(std::numeric_limits<double>::max())};

  Writer w;
  std::vector<std::uint8_t> want;
  for (const std::uint64_t v : u32s) {
    w.u32(static_cast<std::uint32_t>(v));
    ref_u32(want, static_cast<std::uint32_t>(v));
  }
  for (const std::uint64_t v : u64s) {
    w.u64(v);
    ref_u64(want, v);
  }
  for (const std::int64_t v : i64s) {
    w.i64(v);
    ref_u64(want, static_cast<std::uint64_t>(v));
  }
  for (const std::uint64_t b : f64_bits) {
    w.f64(double_of(b));
    ref_u64(want, b);
  }
  ASSERT_EQ(w.buffer(), want);

  Reader r(want);
  for (const std::uint64_t v : u32s) EXPECT_EQ(r.u32(), v);
  for (const std::uint64_t v : u64s) EXPECT_EQ(r.u64(), v);
  for (const std::int64_t v : i64s) EXPECT_EQ(r.i64(), v);
  for (const std::uint64_t b : f64_bits) EXPECT_EQ(bits_of(r.f64()), b);
  EXPECT_NO_THROW(r.expect_end());

  // The word loads read the same values at every alignment.
  const std::vector<std::uint8_t> buf = noise(64 + 8, 11);
  for (std::size_t at = 0; at < 64; ++at) {
    const std::uint8_t* p = buf.data() + at;
    EXPECT_EQ(snapshot::load_le32(p), ref_load(p, 4)) << "offset " << at;
    EXPECT_EQ(snapshot::load_le64(p), ref_load(p, 8)) << "offset " << at;
  }
}

/// Writes a seeded mix of every Writer call to `w` and the reference
/// encoding of the same calls to `want`, until `want` holds `bytes`.
void write_mixed(Writer& w, std::vector<std::uint8_t>& want,
                 std::size_t bytes, std::uint64_t seed) {
  const std::vector<std::uint8_t> rnd = noise(1 << 12, seed);
  for (std::size_t i = 0; want.size() < bytes; ++i) {
    const std::uint8_t* p = rnd.data() + (i * 8) % (rnd.size() - 320);
    const std::uint64_t v = ref_load(p, 8);
    const auto word = static_cast<std::uint32_t>(v >> 8);
    switch (v % 7) {
      case 0:
        w.u8(p[1]);
        want.push_back(p[1]);
        break;
      case 1:
        w.boolean(p[1] & 1);
        want.push_back(p[1] & 1);
        break;
      case 2:
        w.u32(word);
        ref_u32(want, word);
        break;
      case 3:
        w.u64(v);
        ref_u64(want, v);
        break;
      case 4:
        w.f64(double_of(v));
        ref_u64(want, v);
        break;
      case 5: {
        const std::string s(reinterpret_cast<const char*>(p), p[0] % 40);
        w.str(s);
        ref_u64(want, s.size());
        want.insert(want.end(), s.begin(), s.end());
        break;
      }
      default: {
        const std::size_t n = (std::size_t{p[1]} + p[2]) % 301;  // 0..300
        w.bytes(p, n);
        want.insert(want.end(), p, p + n);
      }
    }
  }
}

TEST(SnapshotCodec, LargeMixedWriterMatchesTheReference) {
  Writer w;
  std::vector<std::uint8_t> want;
  write_mixed(w, want, (64 << 10) + 1000, 17);
  ASSERT_GT(want.size(), std::size_t{64} << 10);
  EXPECT_EQ(w.buffer(), want);
  EXPECT_EQ(w.take(), want);
  EXPECT_TRUE(w.buffer().empty());
}

TEST(SnapshotCodec, ReadingPartWayThenWritingOnMatchesTheReference) {
  Writer w;
  std::vector<std::uint8_t> want;
  for (const std::size_t upto : {std::size_t{1}, std::size_t{63},
                                 std::size_t{64}, std::size_t{65},
                                 std::size_t{5000}, std::size_t{70000}}) {
    write_mixed(w, want, upto, upto);
    ASSERT_EQ(w.buffer(), want) << "after " << upto << " bytes";
  }
  w.u64(0x0123456789abcdefULL);
  ref_u64(want, 0x0123456789abcdefULL);
  EXPECT_EQ(w.take(), want);
}

TEST(SnapshotCodec, WriterFillsAHeldVectorsSpareCapacityFirst) {
  // 10000 spare bytes take several grow() steps inside the capacity.
  for (const std::size_t spare : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{100},
                                  std::size_t{10000}}) {
    std::vector<std::uint8_t> start = noise(13, spare + 1);
    start.reserve(start.size() + spare);
    const std::uint8_t* held = start.data();
    std::vector<std::uint8_t> want = start;
    Writer w(std::move(start), want.size());
    // Fill exactly the spare capacity: no reallocation.
    for (std::size_t i = 0; i < spare; ++i) {
      w.u8(static_cast<std::uint8_t>(i));
      want.push_back(static_cast<std::uint8_t>(i));
    }
    ASSERT_EQ(w.buffer(), want) << "spare " << spare;
    EXPECT_EQ(w.buffer().data(), held) << "spare " << spare;
    // Then grow past it.
    write_mixed(w, want, want.size() + 3000, spare);
    EXPECT_EQ(w.take(), want) << "spare " << spare;
  }
}

bool any_type(std::uint8_t) noexcept { return true; }

TEST(SnapshotCodec, FramesAreExactAndHeadersMatchTheReference) {
  static const std::uint8_t kMagic[4] = {'T', 'E', 'S', 'T'};
  const snapshot::FrameFormat format{kMagic, 0x0A0B0C0Du, 1 << 20, any_type};
  const std::vector<std::uint8_t> payload = noise(300, 23);
  for (std::size_t n = 0; n <= 300; ++n) {
    // n payload bytes as words, then single bytes, all within the room
    // frame_writer reserved.
    Writer w = snapshot::frame_writer(n);
    std::size_t at = 0;
    for (; n - at >= 8; at += 8) w.u64(ref_load(payload.data() + at, 8));
    for (; n - at >= 4; at += 4)
      w.u32(static_cast<std::uint32_t>(ref_load(payload.data() + at, 4)));
    for (; at < n; ++at) w.u8(payload[at]);
    const auto type = static_cast<std::uint8_t>(n);
    const std::vector<std::uint8_t> frame =
        snapshot::seal_frame(format, type, std::move(w));
    ASSERT_EQ(frame.size(), snapshot::kFrameHeaderBytes + n);
    EXPECT_EQ(frame.capacity(), frame.size()) << "payload " << n;

    std::vector<std::uint8_t> want(kMagic, kMagic + 4);
    ref_u32(want, format.version);
    want.push_back(type);
    ref_u64(want, n);
    ref_u32(want, reference_crc32(payload.data(), n));
    want.insert(want.end(), payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(n));
    ASSERT_EQ(frame, want) << "payload " << n;

    const snapshot::FrameHeader h =
        snapshot::decode_frame_header(format, frame.data());
    EXPECT_EQ(h.type, type);
    EXPECT_EQ(h.length, ref_load(frame.data() + 9, 8));
    EXPECT_EQ(h.crc, ref_load(frame.data() + 17, 4));
    EXPECT_NO_THROW(snapshot::check_frame_crc(
        h, frame.data() + snapshot::kFrameHeaderBytes));
  }
}

// ------------------------------------------------------ file-level framing

std::vector<std::uint8_t> sample_payload() {
  Writer w;
  w.str("checkpoint payload");
  for (std::uint32_t i = 0; i < 64; ++i) w.u32(i * 2654435761u);
  return w.take();
}

TEST(SnapshotFormat, FileRoundTrip) {
  const std::string path = "snap_io_roundtrip.snap";
  const auto payload = sample_payload();
  snapshot::write_file(path, FileKind::kEngineRun, payload);
  EXPECT_EQ(snapshot::read_file(path, FileKind::kEngineRun), payload);

  // An empty payload is a valid frame.
  snapshot::write_file(path, FileKind::kGridManifest, {});
  EXPECT_TRUE(snapshot::read_file(path, FileKind::kGridManifest).empty());
}

TEST(SnapshotFormat, WrongKindIsMismatch) {
  const std::string path = "snap_io_kind.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  expect_kind(ErrorKind::kMismatch,
              [&] { snapshot::read_file(path, FileKind::kCampaignCursor); });
}

TEST(SnapshotFormat, MissingFileIsIo) {
  expect_kind(ErrorKind::kIo, [] {
    snapshot::read_file("snap_io_no_such_file.snap", FileKind::kEngineRun);
  });
}

TEST(SnapshotFormat, TruncatedFileIsTruncated) {
  const std::string path = "snap_io_truncated.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);

  // Cut inside the header.
  dump(path, {bytes.begin(), bytes.begin() + 10});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // Cut inside the payload: header intact, declared length unsatisfied.
  dump(path, {bytes.begin(), bytes.end() - 7});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // An empty file is also just truncation, not magic failure.
  dump(path, {});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, FlippedPayloadOrCrcByteIsBadCrc) {
  const std::string path = "snap_io_crc.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  const auto good = slurp(path);

  // Flip one bit in the middle of the payload (bit rot).
  auto bytes = good;
  bytes[bytes.size() - 5] ^= 0x10;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadCrc,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // Flip a byte of the stored CRC itself (header offset 21..24).
  bytes = good;
  bytes[22] ^= 0xFF;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadCrc,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, FutureVersionHeaderIsBadVersion) {
  const std::string path = "snap_io_version.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  // Version is the u32 LE at offset 9; pretend a much newer writer.
  bytes[9] = 0x2A;
  bytes[10] = 0;
  bytes[11] = 0;
  bytes[12] = 0;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadVersion,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, CorruptMagicIsBadMagic) {
  const std::string path = "snap_io_magic.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  bytes[0] = 'Z';
  dump(path, bytes);
  expect_kind(ErrorKind::kBadMagic,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, ErrorStringsNameTheKind) {
  // The what() text leads with the kind so untyped catch sites still log
  // something actionable.
  const SnapshotError e(ErrorKind::kBadCrc, "details");
  EXPECT_NE(std::string(e.what()).find(snapshot::to_string(ErrorKind::kBadCrc)),
            std::string::npos);
  // Every kind has a distinct, non-empty name.
  std::vector<std::string> names;
  for (const ErrorKind k :
       {ErrorKind::kIo, ErrorKind::kTruncated, ErrorKind::kBadMagic,
        ErrorKind::kBadVersion, ErrorKind::kBadCrc, ErrorKind::kCorrupt,
        ErrorKind::kMismatch}) {
    names.emplace_back(snapshot::to_string(k));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace asyncmac
