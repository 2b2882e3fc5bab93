#include "adversary/injectors.h"

#include <algorithm>

#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::adversary {

// ---------------------------------------------------------------- bucket

CostBucket::CostBucket(util::Ratio rho, Tick burst_cost)
    : rho_(rho), burst_(burst_cost) {
  AM_REQUIRE(burst_cost >= 0, "burstiness must be non-negative");
  tokens_scaled_ = static_cast<__int128>(burst_) * rho_.den;
}

void CostBucket::advance(Tick now) {
  AM_CHECK(now >= last_);
  const __int128 cap = static_cast<__int128>(burst_) * rho_.den;
  tokens_scaled_ += static_cast<__int128>(rho_.num) * (now - last_);
  if (tokens_scaled_ > cap) tokens_scaled_ = cap;
  last_ = now;
}

bool CostBucket::can_afford(Tick cost) const {
  return tokens_scaled_ >= static_cast<__int128>(cost) * rho_.den;
}

void CostBucket::spend(Tick cost) {
  AM_CHECK(can_afford(cost));
  tokens_scaled_ -= static_cast<__int128>(cost) * rho_.den;
}

Tick CostBucket::tokens() const {
  return static_cast<Tick>(tokens_scaled_ / rho_.den);
}

Tick CostBucket::next_afford_time(Tick cost) const {
  const __int128 need = static_cast<__int128>(cost) * rho_.den;
  if (tokens_scaled_ >= need) return last_;
  // The balance is capped at burst_ * den, so a cost above the burstiness
  // never becomes affordable; neither does anything under a zero rate.
  if (cost > burst_ || rho_.num == 0) return kTickInfinity;
  const __int128 deficit = need - tokens_scaled_;
  const __int128 dt = (deficit + rho_.num - 1) / rho_.num;
  const __int128 when = static_cast<__int128>(last_) + dt;
  if (when >= static_cast<__int128>(kTickInfinity)) return kTickInfinity;
  return static_cast<Tick>(when);
}

void CostBucket::save_state(snapshot::Writer& w) const {
  field(w, tokens_scaled_);
  field(w, last_);
}

void CostBucket::load_state(snapshot::Reader& r) {
  field(r, tokens_scaled_);
  field(r, last_);
}

// ---------------------------------------------------------------- helpers

Tick packet_cost_for(const sim::EngineView& view, StationId station) {
  const Tick fixed = view.fixed_slot_length(station);
  return fixed > 0 ? fixed : kTicksPerUnit;
}

// ---------------------------------------------------------- SaturatingInjector

SaturatingInjector::SaturatingInjector(util::Ratio rho, Tick burst_cost,
                                       TargetPattern pattern,
                                       StationId single_target,
                                       std::uint64_t seed)
    : bucket_(rho, burst_cost),
      pattern_(pattern),
      single_target_(single_target),
      rng_(seed) {}

StationId SaturatingInjector::pick(const sim::EngineView& view) {
  switch (pattern_) {
    case TargetPattern::kSingle:
      return single_target_;
    case TargetPattern::kRandom:
      return static_cast<StationId>(1 + rng_.below(view.n()));
    case TargetPattern::kRoundRobin:
    default: {
      const StationId s = rr_next_;
      rr_next_ = (rr_next_ % view.n()) + 1;
      return s;
    }
  }
}

void SaturatingInjector::poll(Tick now, const sim::EngineView& view,
                              std::vector<sim::Injection>& out) {
  bucket_.advance(now);
  for (;;) {
    // Peek the next target's cost without consuming the pattern state
    // unless we actually inject.
    const StationId candidate =
        (pattern_ == TargetPattern::kRoundRobin) ? rr_next_
        : (pattern_ == TargetPattern::kSingle)   ? single_target_
                                                 : kInvalidStation;
    StationId target = candidate;
    Tick cost;
    if (pattern_ == TargetPattern::kRandom) {
      // Random pattern: affordability is checked against the cheapest
      // possible cost; the draw itself happens only if we can inject the
      // drawn station's packet (re-checked below).
      if (!bucket_.can_afford(kTicksPerUnit)) {
        hint_cost_ = kTicksPerUnit;
        break;
      }
      target = static_cast<StationId>(1 + rng_.below(view.n()));
      cost = packet_cost_for(view, target);
      if (!bucket_.can_afford(cost)) {
        // Drawn target too expensive, but the next poll can afford the
        // cheapest cost and would advance the RNG — so no skipping.
        hint_cost_ = 0;
        break;
      }
    } else {
      cost = packet_cost_for(view, target);
      if (!bucket_.can_afford(cost)) {
        hint_cost_ = cost;
        break;
      }
      if (pattern_ == TargetPattern::kRoundRobin)
        rr_next_ = (rr_next_ % view.n()) + 1;
    }
    bucket_.spend(cost);
    const sim::Injection inj{now, target, cost};
    out.push_back(inj);
    injected_cost_ += cost;
    if (keep_log_) log_.push_back(inj);
  }
}

Tick SaturatingInjector::next_arrival_hint(Tick now) {
  // hint_cost_ is the cost whose affordability ended the last poll: until
  // the bucket can pay it, a poll would change nothing (the pattern state
  // is only consumed on injection, and bucket accrual merges exactly).
  if (hint_cost_ == 0) return now;
  return bucket_.next_afford_time(hint_cost_);
}

std::string SaturatingInjector::name() const {
  return "saturating(rho=" + bucket_.rate().str() + ")";
}

template <typename S, typename Self>
void SaturatingInjector::fields(S& s, Self& self) {
  section(s, self.bucket_);
  field(s, self.rr_next_);
  field(s, self.rng_);
  field(s, self.injected_cost_);
  field(s, self.hint_cost_);
  field(s, self.keep_log_);
  elements(s, self.log_, 8 + 4 + 8, [&s](auto& inj) {
    field(s, inj.time);
    field(s, inj.station);
    field(s, inj.cost);
  });
}

void SaturatingInjector::save_state(snapshot::Writer& w) const {
  fields(w, *this);
}

void SaturatingInjector::load_state(snapshot::Reader& r) { fields(r, *this); }

// ------------------------------------------------------------- BurstyInjector

BurstyInjector::BurstyInjector(util::Ratio rho, Tick burst_cost,
                               Tick period_ticks, TargetPattern pattern,
                               StationId single_target, std::uint64_t seed)
    : bucket_(rho, burst_cost),
      period_(period_ticks),
      pattern_(pattern),
      single_target_(single_target),
      rng_(seed) {
  AM_REQUIRE(period_ticks > 0, "burst period must be positive");
}

StationId BurstyInjector::pick(const sim::EngineView& view) {
  switch (pattern_) {
    case TargetPattern::kSingle:
      return single_target_;
    case TargetPattern::kRandom:
      return static_cast<StationId>(1 + rng_.below(view.n()));
    case TargetPattern::kRoundRobin:
    default: {
      const StationId s = rr_next_;
      rr_next_ = (rr_next_ % view.n()) + 1;
      return s;
    }
  }
}

void BurstyInjector::poll(Tick now, const sim::EngineView& view,
                          std::vector<sim::Injection>& out) {
  if (now < next_burst_) return;
  bucket_.advance(now);
  for (;;) {
    const StationId target = pick(view);
    const Tick cost = packet_cost_for(view, target);
    if (!bucket_.can_afford(cost)) break;
    bucket_.spend(cost);
    out.push_back({now, target, cost});
  }
  next_burst_ = now + period_;
}

Tick BurstyInjector::next_arrival_hint(Tick) {
  // Polls strictly before next_burst_ return without touching anything;
  // the poll at (or first past) next_burst_ must happen even with an
  // empty bucket, because it re-arms the burst clock.
  return next_burst_;
}

std::string BurstyInjector::name() const {
  return "bursty(rho=" + bucket_.rate().str() + ")";
}

template <typename S, typename Self>
void BurstyInjector::fields(S& s, Self& self) {
  section(s, self.bucket_);
  field(s, self.next_burst_);
  field(s, self.rr_next_);
  field(s, self.rng_);
}

void BurstyInjector::save_state(snapshot::Writer& w) const { fields(w, *this); }

void BurstyInjector::load_state(snapshot::Reader& r) { fields(r, *this); }

// -------------------------------------------------------- DrainChasingInjector

DrainChasingInjector::DrainChasingInjector(util::Ratio rho, Tick burst_cost,
                                           StationId a, StationId b)
    : bucket_(rho, burst_cost), a_(a), b_(b) {
  AM_REQUIRE(a != b, "chasing needs two distinct stations");
}

void DrainChasingInjector::poll(Tick now, const sim::EngineView& view,
                                std::vector<sim::Injection>& out) {
  bucket_.advance(now);
  if (min_cost_ == 0)
    min_cost_ = std::min(packet_cost_for(view, a_), packet_cost_for(view, b_));
  // Target whichever of {a, b} did NOT just transmit successfully, so the
  // protocol must keep switching the withheld channel between them.
  const StationId busy = view.last_successful_station();
  const StationId target = (busy == a_) ? b_ : a_;
  for (;;) {
    const Tick cost = packet_cost_for(view, target);
    if (!bucket_.can_afford(cost)) break;
    bucket_.spend(cost);
    out.push_back({now, target, cost});
  }
}

Tick DrainChasingInjector::next_arrival_hint(Tick now) {
  // The target flips with the channel, so only the cheaper victim's
  // afford time is a sound skip bound: before it, neither target's packet
  // is payable and a poll is a pure (mergeable) bucket advance.
  if (min_cost_ == 0) return now;
  return bucket_.next_afford_time(min_cost_);
}

std::string DrainChasingInjector::name() const {
  return "drain-chasing(rho=" + bucket_.rate().str() + ")";
}

void DrainChasingInjector::save_state(snapshot::Writer& w) const {
  section(w, bucket_);
  field(w, min_cost_);
}

void DrainChasingInjector::load_state(snapshot::Reader& r) {
  section(r, bucket_);
  field(r, min_cost_);
}

// ------------------------------------------------------------ MaxQueueInjector

MaxQueueInjector::MaxQueueInjector(util::Ratio rho, Tick burst_cost)
    : bucket_(rho, burst_cost) {}

void MaxQueueInjector::poll(Tick now, const sim::EngineView& view,
                            std::vector<sim::Injection>& out) {
  bucket_.advance(now);
  if (min_cost_ == 0) {
    min_cost_ = packet_cost_for(view, 1);
    for (StationId s = 2; s <= view.n(); ++s)
      min_cost_ = std::min(min_cost_, packet_cost_for(view, s));
  }
  for (;;) {
    StationId target = 1;
    Tick worst = -1;
    for (StationId s = 1; s <= view.n(); ++s) {
      if (view.queue_cost(s) > worst) {
        worst = view.queue_cost(s);
        target = s;
      }
    }
    const Tick cost = packet_cost_for(view, target);
    if (!bucket_.can_afford(cost)) break;
    bucket_.spend(cost);
    out.push_back({now, target, cost});
  }
}

Tick MaxQueueInjector::next_arrival_hint(Tick now) {
  // Same reasoning as DrainChasingInjector: the adaptive target can move,
  // so skip only until the cheapest station's packet is payable.
  if (min_cost_ == 0) return now;
  return bucket_.next_afford_time(min_cost_);
}

std::string MaxQueueInjector::name() const {
  return "max-queue(rho=" + bucket_.rate().str() + ")";
}

void MaxQueueInjector::save_state(snapshot::Writer& w) const {
  section(w, bucket_);
  field(w, min_cost_);
}

void MaxQueueInjector::load_state(snapshot::Reader& r) {
  section(r, bucket_);
  field(r, min_cost_);
}

// ------------------------------------------------------------------ factory

TargetPattern parse_target_pattern(const std::string& name) {
  if (name == "roundrobin") return TargetPattern::kRoundRobin;
  if (name == "single") return TargetPattern::kSingle;
  if (name == "random") return TargetPattern::kRandom;
  throw std::invalid_argument("unknown injection pattern: " + name);
}

std::unique_ptr<sim::InjectionPolicy> make_injector(const InjectorSpec& spec) {
  if (spec.kind == "saturating")
    return std::make_unique<SaturatingInjector>(
        spec.rho, spec.burst_ticks, parse_target_pattern(spec.pattern),
        spec.single_target, spec.seed);
  if (spec.kind == "bursty")
    return std::make_unique<BurstyInjector>(
        spec.rho, spec.burst_ticks, spec.period_ticks,
        parse_target_pattern(spec.pattern), spec.single_target, spec.seed);
  if (spec.kind == "maxqueue")
    return std::make_unique<MaxQueueInjector>(spec.rho, spec.burst_ticks);
  if (spec.kind == "drain-chasing")
    return std::make_unique<DrainChasingInjector>(spec.rho, spec.burst_ticks,
                                                  spec.drain_a, spec.drain_b);
  throw std::invalid_argument("unknown injector kind: " + spec.kind);
}

std::vector<std::string> injector_kinds() {
  return {"saturating", "bursty", "maxqueue", "drain-chasing"};
}

bool injector_draws_seed(const InjectorSpec& spec) {
  return (spec.kind == "saturating" || spec.kind == "bursty") &&
         spec.pattern == "random";
}

// ------------------------------------------------------------ ScriptedInjector

ScriptedInjector::ScriptedInjector(std::vector<sim::Injection> script)
    : script_(std::move(script)) {
  for (std::size_t i = 1; i < script_.size(); ++i)
    AM_REQUIRE(script_[i - 1].time <= script_[i].time,
               "script must be sorted by time");
}

void ScriptedInjector::poll(Tick now, const sim::EngineView&,
                            std::vector<sim::Injection>& out) {
  while (next_ < script_.size() && script_[next_].time <= now)
    out.push_back(script_[next_++]);
}

Tick ScriptedInjector::next_arrival_hint(Tick) {
  return next_ < script_.size() ? script_[next_].time : kTickInfinity;
}

void ScriptedInjector::save_state(snapshot::Writer& w) const {
  field(w, next_);
}

void ScriptedInjector::load_state(snapshot::Reader& r) {
  std::uint64_t cursor = 0;
  field(r, cursor);
  if (cursor > script_.size())
    throw snapshot::SnapshotError(snapshot::ErrorKind::kCorrupt,
                                  "scripted injector cursor past script end");
  next_ = static_cast<std::size_t>(cursor);
}

}  // namespace asyncmac::adversary
