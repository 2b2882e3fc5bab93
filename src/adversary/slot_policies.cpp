#include "adversary/slot_policies.h"

#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::adversary {

Tick require_slot_length(Tick ticks) {
  AM_REQUIRE(ticks >= kTicksPerUnit, "slot length below 1 time unit");
  return ticks;
}

UniformSlotPolicy::UniformSlotPolicy(Tick length_ticks)
    : length_(require_slot_length(length_ticks)) {}

std::string UniformSlotPolicy::name() const {
  return "uniform(" + std::to_string(length_) + ")";
}

PerStationSlotPolicy::PerStationSlotPolicy(std::vector<Tick> lengths)
    : lengths_(std::move(lengths)) {
  AM_REQUIRE(!lengths_.empty(), "need at least one station length");
  for (Tick t : lengths_) require_slot_length(t);
}

Tick PerStationSlotPolicy::slot_length(StationId s, SlotIndex, Tick,
                                       SlotAction) {
  AM_CHECK(s >= 1 && s <= lengths_.size());
  return lengths_[s - 1];
}

Tick PerStationSlotPolicy::fixed_length(StationId s) const {
  AM_CHECK(s >= 1 && s <= lengths_.size());
  return lengths_[s - 1];
}

std::string PerStationSlotPolicy::name() const { return "per-station-fixed"; }

CyclicSlotPolicy::CyclicSlotPolicy(std::vector<Tick> pattern,
                                   bool shift_per_station)
    : pattern_(std::move(pattern)), shift_per_station_(shift_per_station) {
  AM_REQUIRE(!pattern_.empty(), "pattern must be non-empty");
  for (Tick t : pattern_) require_slot_length(t);
}

Tick CyclicSlotPolicy::slot_length(StationId s, SlotIndex j, Tick,
                                   SlotAction) {
  const std::size_t shift = shift_per_station_ ? s : 0;
  return pattern_[(static_cast<std::size_t>(j - 1) + shift) %
                  pattern_.size()];
}

std::string CyclicSlotPolicy::name() const { return "cyclic"; }

RandomSlotPolicy::RandomSlotPolicy(std::uint32_t n, Tick min_ticks,
                                   Tick max_ticks, std::uint64_t seed)
    : min_(require_slot_length(min_ticks)), max_(max_ticks) {
  AM_REQUIRE(max_ticks >= min_ticks, "max < min");
  util::Rng seeder(seed);
  rngs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) rngs_.push_back(seeder.split());
}

Tick RandomSlotPolicy::slot_length(StationId s, SlotIndex, Tick, SlotAction) {
  AM_CHECK(s >= 1 && s <= rngs_.size());
  return rngs_[s - 1].range(min_, max_);
}

std::string RandomSlotPolicy::name() const { return "random"; }

template <typename S, typename Self>
void RandomSlotPolicy::fields(S& s, Self& self) {
  echo(s, "random slot policy was saved with a different station count",
       self.rngs_.size());
  for (auto& rng : self.rngs_) field(s, rng);
}

void RandomSlotPolicy::save_state(snapshot::Writer& w) const {
  fields(w, *this);
}

void RandomSlotPolicy::load_state(snapshot::Reader& r) { fields(r, *this); }

StretchTransmitsPolicy::StretchTransmitsPolicy(Tick stretch_ticks)
    : stretch_(require_slot_length(stretch_ticks)) {}

Tick StretchTransmitsPolicy::slot_length(StationId, SlotIndex, Tick,
                                         SlotAction a) {
  return is_transmit(a) ? stretch_ : kTicksPerUnit;
}

std::string StretchTransmitsPolicy::name() const {
  return "stretch-transmits(" + std::to_string(stretch_) + ")";
}

RegimeFlipSlotPolicy::RegimeFlipSlotPolicy(
    std::unique_ptr<sim::SlotPolicy> before,
    std::unique_ptr<sim::SlotPolicy> after, Tick flip_at_ticks)
    : before_(std::move(before)),
      after_(std::move(after)),
      flip_at_(flip_at_ticks) {
  AM_REQUIRE(before_ && after_, "both regimes must be provided");
  AM_REQUIRE(flip_at_ticks >= 0, "flip time must be non-negative");
}

Tick RegimeFlipSlotPolicy::slot_length(StationId s, SlotIndex j, Tick begin,
                                       SlotAction a) {
  return (begin < flip_at_ ? before_ : after_)
      ->slot_length(s, j, begin, a);
}

std::string RegimeFlipSlotPolicy::name() const {
  return "regime-flip(" + before_->name() + "->" + after_->name() + ")";
}

void RegimeFlipSlotPolicy::save_state(snapshot::Writer& w) const {
  before_->save_state(w);
  after_->save_state(w);
}

void RegimeFlipSlotPolicy::load_state(snapshot::Reader& r) {
  before_->load_state(r);
  after_->load_state(r);
}

std::unique_ptr<sim::SlotPolicy> make_slot_policy(const std::string& name,
                                                  std::uint32_t n,
                                                  std::uint32_t bound_r,
                                                  std::uint64_t seed) {
  const Tick u = kTicksPerUnit;
  if (name == "sync") return std::make_unique<UniformSlotPolicy>(u);
  if (name == "max")
    return std::make_unique<UniformSlotPolicy>(bound_r * u);
  if (name == "perstation") {
    std::vector<Tick> lens(n);
    for (std::uint32_t i = 0; i < n; ++i) lens[i] = (1 + (i % bound_r)) * u;
    return std::make_unique<PerStationSlotPolicy>(std::move(lens));
  }
  if (name == "cyclic") {
    std::vector<Tick> pattern;
    for (std::uint32_t k = 1; k <= bound_r; ++k) pattern.push_back(k * u);
    return std::make_unique<CyclicSlotPolicy>(std::move(pattern));
  }
  if (name == "random")
    return std::make_unique<RandomSlotPolicy>(n, u, bound_r * u, seed);
  if (name == "stretch-tx")
    return std::make_unique<StretchTransmitsPolicy>(bound_r * u);
  AM_REQUIRE(false, "unknown slot policy: " + name);
  return nullptr;
}

std::vector<std::string> slot_policy_names() {
  return {"sync", "max", "perstation", "cyclic", "random", "stretch-tx"};
}

bool slot_policy_draws_seed(const std::string& name) {
  return name == "random";
}

}  // namespace asyncmac::adversary
