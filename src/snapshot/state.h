// asyncmac/snapshot/state.h
//
// The field-list vocabulary every component's snapshot section is written
// in (docs/CHECKPOINT.md §2). A section is one function template over the
// stream type: run with a Writer it saves, run with a Reader it loads, so
// its layout is stated once. field() has a Writer overload by value and a
// Reader overload by reference for each stored type; a value whose type
// has none does not compile, so no width changes silently. Steps that run
// on one side only (rebuilding derived state, range checks on loaded
// values) sit under `if constexpr (kLoading<S>)`. Lives in snapshot/ (not
// util/) so util stays free of snapshot includes; callers already link
// util for the types themselves.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "snapshot/io.h"
#include "util/rng.h"

namespace asyncmac::snapshot {

/// True in the loading instantiation of a section template.
template <typename S>
inline constexpr bool kLoading = std::is_same_v<S, Reader>;

/// Any other type: a compile error instead of a silent conversion.
template <typename T>
void field(Writer& w, T v) = delete;
inline void field(Writer& w, bool v) { w.boolean(v); }
inline void field(Writer& w, std::uint8_t v) { w.u8(v); }
inline void field(Writer& w, std::uint32_t v) { w.u32(v); }
inline void field(Writer& w, std::uint64_t v) { w.u64(v); }
inline void field(Writer& w, std::int64_t v) { w.i64(v); }
inline void field(Writer& w, double v) { w.f64(v); }
inline void field(Writer& w, const std::string& v) { w.str(v); }
/// xoshiro256** stream: four u64 words, in order.
inline void field(Writer& w, const util::Rng& rng) {
  for (std::uint64_t v : rng.state()) w.u64(v);
}
/// Signed 128-bit value as two u64 words, low then high.
inline void field(Writer& w, __int128 v) {
  const auto u = static_cast<unsigned __int128>(v);
  w.u64(static_cast<std::uint64_t>(u));
  w.u64(static_cast<std::uint64_t>(u >> 64));
}

inline void field(Reader& r, bool& v) { v = r.boolean(); }
inline void field(Reader& r, std::uint8_t& v) { v = r.u8(); }
inline void field(Reader& r, std::uint32_t& v) { v = r.u32(); }
inline void field(Reader& r, std::uint64_t& v) { v = r.u64(); }
inline void field(Reader& r, std::int64_t& v) { v = r.i64(); }
inline void field(Reader& r, double& v) { v = r.f64(); }
inline void field(Reader& r, std::string& v) { r.str(v); }
inline void field(Reader& r, util::Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& v : s) v = r.u64();
  rng.set_state(s);
}
inline void field(Reader& r, __int128& v) {
  const std::uint64_t lo = r.u64();
  const std::uint64_t hi = r.u64();
  v = static_cast<__int128>((static_cast<unsigned __int128>(hi) << 64) | lo);
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

/// field() of a one-byte enum `e` (or a byte holding one) bounded by
/// `last`, loaded through load_enum.
template <typename E, typename Last>
void field(Writer& w, E e, Last) {
  static_assert(std::is_enum_v<E> || std::is_same_v<E, std::uint8_t>);
  w.u8(static_cast<std::uint8_t>(e));
}
template <typename E, typename Last>
void field(Reader& r, E& e, Last last) {
  static_assert(std::is_enum_v<E> || std::is_same_v<E, std::uint8_t>);
  e = static_cast<E>(load_enum(r, last));
}

/// `x` stored as the wider type W (an int count stored as i64).
template <typename W, typename T>
void field_as(Writer& w, const T& x) {
  field(w, static_cast<W>(x));
}
template <typename W, typename T>
void field_as(Reader& r, T& x) {
  W v{};
  field(r, v);
  x = static_cast<T>(v);
}

/// A u64 element count, then each(element) for every element. On load
/// the count passes Reader::count(min_bytes) before `v` is sized, so a
/// corrupt count is kCorrupt before any allocation.
template <typename C, typename Each>
void elements(Writer& w, const C& v, std::size_t, Each&& each) {
  w.u64(v.size());
  for (const auto& x : v) each(x);
}
template <typename C, typename Each>
void elements(Reader& r, C& v, std::size_t min_bytes, Each&& each) {
  v.clear();
  v.resize(static_cast<std::size_t>(r.count(min_bytes)));
  for (auto& x : v) each(x);
}
/// elements() of values field() stores directly.
template <typename S, typename C>
void elements(S& s, C& v, std::size_t min_bytes) {
  elements(s, v, min_bytes, [&s](auto& x) { field(s, x); });
}

/// Configuration values the payload repeats. On load, values that differ
/// from the configured ones are kMismatch with message `what`, raised
/// once all of them are read.
template <typename... T>
void echo(Writer& w, std::string_view, const T&... v) {
  (field(w, v), ...);
}
template <typename... T>
void echo(Reader& r, std::string_view what, const T&... want) {
  std::tuple<T...> got;
  std::apply([&r](auto&... v) { (field(r, v), ...); }, got);
  if (got != std::tie(want...))
    throw SnapshotError(ErrorKind::kMismatch, std::string(what));
}

/// A nested component's own section.
template <typename T>
void section(Writer& w, const T& c) {
  c.save_state(w);
}
template <typename T>
void section(Reader& r, T& c) {
  c.load_state(r);
}

/// A presence flag, then the held automaton's section. On load a present
/// one is first built by make() (the protocol's factory); an absent one
/// is reset. Works on std::optional and std::unique_ptr.
template <typename Opt, typename Make = std::nullptr_t>
void optional_section(Writer& w, const Opt& opt, Make&& = nullptr) {
  w.boolean(static_cast<bool>(opt));
  if (opt) opt->save_state(w);
}
template <typename Opt, typename Make>
void optional_section(Reader& r, Opt& opt, Make&& make) {
  if (r.boolean()) {
    opt = make();
    opt->load_state(r);
  } else {
    opt.reset();
  }
}

}  // namespace asyncmac::snapshot
