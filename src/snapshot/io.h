// asyncmac/snapshot/io.h
//
// Primitive binary serialization for the checkpoint/resume subsystem
// (docs/CHECKPOINT.md). Writer appends fixed-width little-endian scalars
// to an in-memory buffer; Reader consumes the same encoding with strict
// bounds checks. Every decode failure raises a typed SnapshotError —
// corrupt or truncated input must surface as an exception, never as
// undefined behaviour (pinned by test_snapshot_io under ASan/UBSan).
//
// The encoding is deliberately boring: byte-by-byte little-endian, no
// varints, no alignment, no implicit framing. Determinism of resumed runs
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `crc` chains
/// incremental computations; pass 0 to start. Snapshot and checkpoint
/// files, grid manifests, campaign cursors and both wires' frames all
/// carry it. Slicing-by-8: eight bytes per step through eight 256-entry
/// tables built at compile time (no static-init work), words assembled
/// from bytes (no unaligned or type-punned loads), the bytewise loop for
/// the tail. Results and chaining equal the bytewise CRC's
/// (tests/test_snapshot_io pins that against a reference loop).
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc = 0) noexcept;

class Writer {
 public:
  Writer() = default;
  /// Append after `buf`'s bytes, keeping its capacity (a frame's header
  /// room: snapshot::frame_writer).
  explicit Writer(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Doubles are stored as their IEEE-754 bit pattern; they round-trip
  /// exactly (doubles appear only in reporting fields, never on the
  /// simulation path).
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) raw bytes.
  void str(const std::string& s);
  void bytes(const void* p, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
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

/// A length-prefixed string list (the count read through Reader::count).
void save_strings(Writer& w, const std::vector<std::string>& v);
std::vector<std::string> load_strings(Reader& r);

}  // namespace asyncmac::snapshot
