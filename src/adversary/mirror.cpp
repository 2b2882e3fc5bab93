#include "adversary/mirror.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "channel/ledger.h"
#include "util/check.h"

namespace asyncmac::adversary {

MirrorRun::MirrorRun(sim::ProtocolMaker factory, std::uint32_t n,
                     std::uint32_t r, std::uint32_t bound_r,
                     std::uint32_t max_phases)
    : factory_(std::move(factory)),
      n_(n),
      r_(r),
      bound_r_(bound_r),
      max_phases_(max_phases) {
  AM_REQUIRE(n >= 2, "the mirror construction needs n >= 2");
  AM_REQUIRE(r >= 2 && r <= bound_r, "need 2 <= r <= R");
  AM_REQUIRE(bound_r <= 16, "tick resolution supports R <= 16");
}

MirrorRun::Extension MirrorRun::extend(const AliveStation& s) const {
  Extension ext{.transmits = {},
                .protocol = s.protocol->clone(),
                .ctx = s.ctx,  // deep copy (queue + rng state)
                .pending = s.pending,
                .f = 0};
  ext.transmits.reserve(r_);
  for (std::uint32_t k = 0; k < r_; ++k) {
    const bool tx = is_transmit(ext.pending);
    ext.transmits.push_back(tx);
    const sim::SlotResult mirrored{
        ext.pending, tx ? Feedback::kBusy : Feedback::kSilence, false};
    ext.pending = ext.protocol->next_action(mirrored, ext.ctx);
  }
  // f(i) = #maximal blocks, plus r when the word starts with a transmit.
  std::uint32_t blocks = 1;
  for (std::uint32_t k = 1; k < r_; ++k)
    if (ext.transmits[k] != ext.transmits[k - 1]) ++blocks;
  ext.f = blocks + (ext.transmits.front() ? r_ : 0);
  return ext;
}

MirrorResult MirrorRun::run() {
  const Tick unit = kTicksPerUnit;

  std::vector<AliveStation> alive;
  alive.reserve(n_);
  for (StationId id = 1; id <= n_; ++id) {
    AliveStation s{.id = id,
                   .protocol = factory_(),
                   .ctx = sim::StationContext(id, n_, bound_r_, id),
                   .pending = SlotAction::kListen,
                   .schedule = {}};
    // The SST "message": one packet that is never delivered (the mirror
    // execution has no successful transmissions).
    sim::Packet msg;
    msg.seq = id;
    msg.station = id;
    msg.cost = unit;
    s.ctx.push(msg);
    s.pending = s.protocol->next_action(std::nullopt, s.ctx);
    alive.push_back(std::move(s));
  }

  MirrorResult result;
  Tick now = 0;

  for (std::uint32_t phase = 0; phase < max_phases_; ++phase) {
    // Virtual extensions under mirrored feedback.
    std::vector<Extension> ext;
    ext.reserve(alive.size());
    for (const auto& s : alive) ext.push_back(extend(s));

    // Pigeonhole on f; keep the largest class (ties -> smallest f).
    std::map<std::uint32_t, std::vector<std::size_t>> classes;
    for (std::size_t i = 0; i < ext.size(); ++i)
      classes[ext[i].f].push_back(i);
    const auto best = std::max_element(
        classes.begin(), classes.end(), [](const auto& a, const auto& b) {
          return a.second.size() < b.second.size();
        });
    if (best->second.size() < 2) break;  // cannot keep the mirror alive

    const std::uint32_t f = best->first;
    const std::uint32_t blocks = (f <= r_) ? f : f - r_;

    // Commit: stretch each kept station's blocks to exactly r time units.
    std::vector<AliveStation> kept;
    kept.reserve(best->second.size());
    for (const std::size_t i : best->second) {
      AliveStation s = std::move(alive[i]);
      Extension& e = ext[i];

      // Split zeta into maximal runs; all class members share the count.
      std::vector<std::uint32_t> run_lengths;
      std::uint32_t run = 1;
      for (std::uint32_t k = 1; k < r_; ++k) {
        if (e.transmits[k] != e.transmits[k - 1]) {
          run_lengths.push_back(run);
          run = 1;
        } else {
          ++run;
        }
      }
      run_lengths.push_back(run);
      AM_CHECK(run_lengths.size() == blocks);

      Tick t = now;
      std::uint32_t slot = 0;
      for (std::uint32_t j = 0; j < blocks; ++j) {
        const std::uint32_t m = run_lengths[j];
        const Tick block_total = static_cast<Tick>(r_) * unit;
        AM_CHECK(block_total % m == 0);
        const Tick len = block_total / m;
        for (std::uint32_t k = 0; k < m; ++k) {
          const SlotAction a = e.transmits[slot]
                                   ? SlotAction::kTransmitPacket
                                   : SlotAction::kListen;
          s.schedule.emplace_back(t, t + len, a);
          t += len;
          ++slot;
        }
      }
      AM_CHECK(slot == r_);
      AM_CHECK(t == now + static_cast<Tick>(blocks) * r_ * unit);

      // Adopt the virtual continuation as the committed automaton state.
      s.protocol = std::move(e.protocol);
      s.ctx = std::move(e.ctx);
      s.pending = e.pending;
      kept.push_back(std::move(s));
    }

    alive = std::move(kept);
    now += static_cast<Tick>(blocks) * r_ * unit;
    ++result.phases;
  }

  result.slots_per_station = static_cast<std::uint64_t>(result.phases) * r_;
  result.total_time = now;
  for (const auto& s : alive) result.survivors.push_back(s.id);
  result.verified_mirror = verify(alive, now);
  return result;
}

bool MirrorRun::verify(const std::vector<AliveStation>& alive,
                       Tick end_time) const {
  (void)end_time;
  if (alive.size() < 2) return true;  // nothing committed (0 phases)

  // Gather every committed slot, register the transmissions in begin
  // order, then check the mirror property against the exact channel model.
  struct Slot {
    StationId station;
    Tick begin, end;
    SlotAction action;
  };
  std::vector<Slot> slots;
  for (const auto& s : alive)
    for (const auto& [b, e, a] : s.schedule) slots.push_back({s.id, b, e, a});
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return std::tie(a.begin, a.station) < std::tie(b.begin, b.station);
  });

  channel::Ledger ledger;
  for (const auto& s : slots) {
    if (!is_transmit(s.action)) continue;
    channel::Transmission tx;
    tx.station = s.station;
    tx.begin = s.begin;
    tx.end = s.end;
    ledger.add(tx);
  }
  for (const auto& s : slots) {
    const Feedback fb = ledger.feedback(s.begin, s.end);
    const Feedback expected =
        is_transmit(s.action) ? Feedback::kBusy : Feedback::kSilence;
    if (fb != expected) return false;
  }
  return true;
}

}  // namespace asyncmac::adversary
