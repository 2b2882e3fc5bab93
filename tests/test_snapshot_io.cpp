// The snapshot serialization and framing layer (snapshot/io.h,
// snapshot/format.h): scalar round-trips, strict truncation guards, the
// CRC-32 reference vector, and the corruption matrix — truncated files,
// flipped payload/CRC bytes, future-version headers, wrong kinds and bad
// magic must each raise the documented typed SnapshotError, never
// undefined behaviour (this suite also runs under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/format.h"
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
