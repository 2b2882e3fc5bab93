// asyncmac/sim/event_heap.h
//
// Slot-end event scheduler: a winner (tournament) tree keyed by station.
//
// The engine's event set has a structural invariant the generic
// std::priority_queue cannot exploit: exactly one slot-end event is ever
// pending per station — a station always has exactly one committed slot,
// whose end is replaced (never removed) when the slot is processed. The
// scheduler therefore holds a fixed n entries for the whole run: update()
// re-keys a station's single entry in place, so the hot loop does no
// push/pop churn and no container growth.
//
// Ordering is (end tick, station id) lexicographic — identical to the
// previous std::priority_queue<std::pair<Tick, StationId>, ...,
// std::greater<>> scheduler, which makes the event processing order (and
// with it every trace byte) bit-for-bit identical. Simultaneous slot ends
// are processed in ascending station order; no two entries compare equal
// because station ids are unique.
//
// Layout (measured in docs/PERFORMANCE.md §1):
//  * A node is ONE unsigned __int128: (end << 32) | station. End ticks
//    are non-negative and station ids fit 32 bits, so lexicographic
//    (end, station) order coincides with plain integer order — one
//    branch-free comparison instead of a two-level tie-break.
//  * Station i's leaf sits at tree_[P + i - 1], P the next power of two
//    >= n; the padding leaves hold all-ones, above every real key. Each
//    internal node holds the smaller key of its two children, so tree_[1]
//    is the next event.
//  * update() writes the leaf and recomputes each ancestor from its
//    sibling: log2(P) steps, the same for every station and every key, so
//    the loop has no data-dependent exit and keeps no position index.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace asyncmac::sim {

class SlotEventHeap {
 public:
  /// All stations start with key kTickInfinity ("no slot committed yet").
  explicit SlotEventHeap(std::uint32_t n) : n_(n) {
    while (leaves_ < n) leaves_ *= 2;
    tree_.assign(2 * leaves_, ~Node{0});
    for (StationId s = 1; s <= n; ++s) update(s, kTickInfinity);
  }

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Earliest pending (end, station) under the lexicographic order.
  Tick top_time() const noexcept { return time_part(tree_[1]); }
  StationId top_station() const noexcept { return station_part(tree_[1]); }

  /// Current key of a station's single entry.
  Tick time_of(StationId station) const noexcept {
    return time_part(tree_[leaves_ + station - 1]);
  }

  /// Re-key `station`'s entry to `end` and replay its matches up to the
  /// root. O(log n), no allocation.
  void update(StationId station, Tick end) noexcept {
    std::size_t i = leaves_ + station - 1;
    Node winner = make(end, station);
    tree_[i] = winner;
    for (; i > 1; i >>= 1) {
      const Node rival = tree_[i ^ 1];
      winner = rival < winner ? rival : winner;
      tree_[i >> 1] = winner;
    }
  }

 private:
  /// (end << 32) | station. End ticks are engine times (>= 0, with
  /// kTickInfinity = INT64_MAX as the "no event" sentinel), so the packed
  /// integer order is exactly the (end, station) lexicographic order.
  using Node = unsigned __int128;

  static Node make(Tick end, StationId station) noexcept {
    return (static_cast<Node>(static_cast<std::uint64_t>(end)) << 32) |
           station;
  }
  static Tick time_part(Node n) noexcept {
    return static_cast<Tick>(static_cast<std::uint64_t>(n >> 32));
  }
  static StationId station_part(Node n) noexcept {
    return static_cast<StationId>(n);
  }

  std::uint32_t n_;
  std::size_t leaves_ = 1;  ///< P: first leaf index, a power of two >= n
  std::vector<Node> tree_;  ///< [1, P) winners, [P, P + n) station leaves
};

}  // namespace asyncmac::sim
