#include "snapshot/io.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace asyncmac::snapshot {

const char* to_string(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::kIo: return "snapshot io error";
    case ErrorKind::kTruncated: return "snapshot truncated";
    case ErrorKind::kBadMagic: return "snapshot bad magic";
    case ErrorKind::kBadVersion: return "snapshot bad version";
    case ErrorKind::kBadCrc: return "snapshot bad crc";
    case ErrorKind::kCorrupt: return "snapshot corrupt";
    case ErrorKind::kMismatch: return "snapshot mismatch";
  }
  return "snapshot error";
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[j][b] is the CRC register
/// after byte b followed by j zero bytes, so one step folds eight bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j)
    for (std::size_t i = 0; i < 256; ++i)
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// A default Writer's first allocation.
constexpr std::size_t kMinCapacity = 64;
/// How far past the output Writer::grow opens the buffer at most:
/// resize() zero-fills what it opens, so opening the whole capacity
/// would make reserved pages resident before anything is written there.
constexpr std::size_t kMaxOpen = 4096;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc) noexcept {
  const CrcTables& t = kCrcTables;
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len)
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

void Writer::grow(std::size_t n) {
  // Spare capacity (the exact payload room frame_writer reserves) is used
  // before reallocating, and reallocating doubles. The trim keeps the
  // reallocation from copying bytes past the output.
  buf_.resize(len_);
  if (buf_.capacity() - len_ < n)
    buf_.reserve(std::max({len_ + n, 2 * buf_.capacity(), kMinCapacity}));
  buf_.resize(std::min(buf_.capacity(), len_ + std::max(n, kMaxOpen)));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Writer::bytes(const void* p, std::size_t n) {
  if (n == 0) return;  // p may be null for an empty span (vector::data())
  std::memcpy(claim(n), p, n);
}

void Reader::need(std::size_t n) const {
  if (remaining() < n)
    throw SnapshotError(ErrorKind::kTruncated,
                        "need " + std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()));
}

std::uint8_t Reader::u8() {
  need(1);
  return *p_++;
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = load_le32(p_);
  p_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = load_le64(p_);
  p_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "boolean byte " + std::to_string(v));
  return v != 0;
}

std::string Reader::str() {
  std::string s;
  str(s);
  return s;
}

void Reader::str(std::string& out) {
  const std::uint64_t len = u64();
  // need() guards the allocation: a corrupt huge length is reported as
  // truncation instead of an out-of-memory attempt.
  need(static_cast<std::size_t>(len));
  out.assign(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(len));
  p_ += len;
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_element_bytes)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "declared element count " + std::to_string(n) +
                            " cannot fit in the payload");
  return n;
}

void Reader::bytes(void* out, std::size_t n) {
  if (n == 0) return;  // out may be null for an empty span (vector::data())
  need(n);
  std::memcpy(out, p_, n);
  p_ += n;
}

void Reader::expect_end() const {
  if (remaining() != 0)
    throw SnapshotError(ErrorKind::kCorrupt,
                        std::to_string(remaining()) +
                            " trailing bytes after payload");
}

}  // namespace asyncmac::snapshot
