// asyncmac/snapshot/io.h
//
// Primitive binary serialization for the checkpoint/resume subsystem
// (docs/CHECKPOINT.md). Writer appends fixed-width little-endian scalars
// to an in-memory buffer; Reader consumes the same encoding with strict
// bounds checks. Every decode failure raises a typed SnapshotError —
// corrupt or truncated input must surface as an exception, never as
// undefined behaviour (pinned by test_snapshot_io under ASan/UBSan).
//
// The encoding is deliberately boring: fixed-width little-endian scalars,
// no varints, no alignment, no implicit framing, written and read as
// whole words (store_le32/64, load_le32/64). Determinism of resumed runs
// rests on these bytes round-tripping exactly, so the format must not
// depend on host endianness or struct layout.
//
// This library depends on nothing else in the repo so that every stateful
// layer (util, channel, sim, core, baselines, adversary, analysis,
// verify) can link it without cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace asyncmac::snapshot {

/// Classification of snapshot failures. Kept coarse on purpose: callers
/// branch on "which guarantee was violated", not on byte offsets.
enum class ErrorKind : std::uint8_t {
  kIo,          ///< file could not be opened/read/written/renamed
  kTruncated,   ///< input ended before a declared field/payload
  kBadMagic,    ///< file does not start with the snapshot magic
  kBadVersion,  ///< written by a newer (or unknown) format version
  kBadCrc,      ///< payload checksum mismatch (bit rot / partial write)
  kCorrupt,     ///< framing/CRC fine but content is inconsistent
  kMismatch,    ///< snapshot is valid but for a different configuration
};

const char* to_string(ErrorKind k) noexcept;

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Little-endian words at any alignment. Written as straight-line shifts,
/// which g++ 12 at -O2 folds into one move on x86-64; a shift loop stays
/// one byte per iteration there.
inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return load_le32(p) | static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `crc` chains
/// incremental computations; pass 0 to start. Snapshot and checkpoint
/// files, grid manifests, campaign cursors and both wires' frames all
/// carry it. Slicing-by-8: eight bytes per step through eight 256-entry
/// tables built at compile time (no static-init work), words read with
/// load_le32 (no unaligned or type-punned loads), the bytewise loop for
/// the tail. Results and chaining equal the bytewise CRC's
/// (tests/test_snapshot_io pins that against a reference loop).
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc = 0) noexcept;

/// Appends through a write cursor: the first len_ bytes of buf_ are the
/// output and the rest of buf_ is open for writing. A scalar costs one
/// free-space check and one store; grow() runs only when too few bytes
/// are open. buffer() and take() trim buf_ to the output, so buffer()
/// mutates buf_ although it is const: call it from one thread at a time,
/// as any write.
class Writer {
 public:
  Writer() = default;
  /// Write from byte `at` of `buf` on (at <= buf.size()), overwriting its
  /// bytes past `at` and then its spare capacity before reallocating: a
  /// frame's header room, followed by the room snapshot::frame_writer
  /// sized for the payload.
  Writer(std::vector<std::uint8_t> buf, std::size_t at)
      : buf_(std::move(buf)), len_(at) {}

  void u8(std::uint8_t v) { *claim(1) = v; }
  void u32(std::uint32_t v) { store_le32(claim(4), v); }
  void u64(std::uint64_t v) { store_le64(claim(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Doubles are stored as their IEEE-754 bit pattern; they round-trip
  /// exactly (doubles appear only in reporting fields, never on the
  /// simulation path).
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) raw bytes.
  void str(const std::string& s);
  void bytes(const void* p, std::size_t n);

  /// The bytes written so far.
  const std::vector<std::uint8_t>& buffer() const {
    buf_.resize(len_);
    return buf_;
  }
  std::vector<std::uint8_t> take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  /// The next n bytes of the buffer, grown first when fewer are free.
  std::uint8_t* claim(std::size_t n) {
    if (len_ + n > buf_.size()) grow(n);
    std::uint8_t* p = buf_.data() + len_;
    len_ += n;
    return p;
  }
  void grow(std::size_t n);

  mutable std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();
  /// str() into `out`, reusing its storage.
  void str(std::string& out);
  void bytes(void* out, std::size_t n);
  /// A u64 element count, refused as kCorrupt when that many elements of
  /// at least `min_element_bytes` each cannot fit in the bytes left — a
  /// corrupt count never drives an allocation.
  std::uint64_t count(std::size_t min_element_bytes);

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// Throws kCorrupt unless the whole input was consumed — catches
  /// writer/reader schema drift early.
  void expect_end() const;

 private:
  /// Throws SnapshotError(kTruncated) unless n more bytes are available.
  void need(std::size_t n) const;

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace asyncmac::snapshot
