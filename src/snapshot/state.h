// asyncmac/snapshot/state.h
//
// Inline helpers for serializing the util-layer value types that appear
// in many components' save_state/load_state implementations, and the one
// checked loader for one-byte enums. Lives in snapshot/ (not util/) so
// util stays free of snapshot includes; callers already link util for
// the types themselves.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "snapshot/io.h"
#include "util/rng.h"

namespace asyncmac::snapshot {

/// xoshiro256** stream: four u64 words, in order.
inline void save_rng(Writer& w, const util::Rng& rng) {
  for (std::uint64_t v : rng.state()) w.u64(v);
}

inline void load_rng(Reader& r, util::Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& v : s) v = r.u64();
  rng.set_state(s);
}

/// Signed 128-bit value as two u64 words, low then high.
inline void save_i128(Writer& w, __int128 v) {
  const auto u = static_cast<unsigned __int128>(v);
  w.u64(static_cast<std::uint64_t>(u));
  w.u64(static_cast<std::uint64_t>(u >> 64));
}

inline __int128 load_i128(Reader& r) {
  const std::uint64_t lo = r.u64();
  const std::uint64_t hi = r.u64();
  return static_cast<__int128>((static_cast<unsigned __int128>(hi) << 64) |
                               lo);
}

/// A one-byte enum whose enumerators run from 0 to `last`, written as
/// w.u8(static_cast<std::uint8_t>(value)). A byte past `last` is
/// kCorrupt: no writer produces it, and casting it would leave the
/// automaton in a state none of its switches handles.
template <typename Enum>
Enum load_enum(Reader& r, Enum last) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(last))
    throw SnapshotError(ErrorKind::kCorrupt,
                        "enum byte " + std::to_string(v) + " past its last "
                        "value " + std::to_string(static_cast<int>(last)));
  return static_cast<Enum>(v);
}

}  // namespace asyncmac::snapshot
