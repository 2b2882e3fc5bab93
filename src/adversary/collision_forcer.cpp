#include "adversary/collision_forcer.h"

#include <algorithm>
#include <vector>

#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "sim/engine.h"
#include "util/check.h"

namespace asyncmac::adversary {

namespace {

struct ProbeResult {
  bool transmitted = false;
  std::uint64_t first_tx_slot = 0;  // 1-based slot index of the target
  std::uint64_t queue = 0;          // target's queue when the probe ended
};

// Run the target station alone against silence: unit slots, packets at the
// end of slots S, S+d, S+2d, ... (k packets), stop at the protocol's first
// transmission attempt.
ProbeResult probe(const sim::ProtocolMaker& factory, StationId target,
                  std::uint64_t s_start, std::uint64_t d, std::uint64_t k,
                  std::uint32_t bound_r) {
  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = bound_r;
  cfg.allow_control = false;  // the theorem's model class
  cfg.keep_channel_history = true;

  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.push_back(factory());
  protocols.push_back(factory());

  std::vector<sim::Injection> script;
  for (std::uint64_t i = 0; i < k; ++i)
    script.push_back({static_cast<Tick>(s_start + i * d) * kTicksPerUnit,
                      target, kTicksPerUnit});

  sim::Engine engine(cfg, std::move(protocols),
                     std::make_unique<UniformSlotPolicy>(kTicksPerUnit),
                     std::make_unique<ScriptedInjector>(std::move(script)));

  sim::StopCondition stop;
  stop.max_time = static_cast<Tick>(s_start + k * d + 2) * kTicksPerUnit;
  stop.predicate = [](const sim::Engine& e) {
    return e.channel_stats().transmissions >= 1;
  };
  engine.run(stop);

  ProbeResult out;
  out.queue = engine.queue_size(target);
  if (engine.channel_stats().transmissions >= 1) {
    out.transmitted = true;
    Tick first_begin = kTickInfinity;
    for (const auto& tx : engine.ledger().full_history())
      first_begin = std::min(first_begin, tx.begin);
    for (const auto& tx : engine.ledger().window())
      first_begin = std::min(first_begin, tx.begin);
    AM_CHECK(first_begin != kTickInfinity);
    out.first_tx_slot =
        static_cast<std::uint64_t>(first_begin / kTicksPerUnit) + 1;
  }
  return out;
}

}  // namespace

CollisionForceOutcome force_collision_or_overflow(
    const sim::ProtocolMaker& factory, util::Ratio rho, std::uint64_t l_bound,
    std::uint32_t bound_r) {
  AM_REQUIRE(bound_r >= 2, "Theorem 4 needs R >= 2 (asynchrony)");
  AM_REQUIRE(rho.num > 0, "Theorem 4 needs a positive rate");
  AM_REQUIRE(l_bound >= 1, "queue bound must be positive");

  CollisionForceOutcome out;

  // S > (2L + 2) / (rho (R - 1)), with margin so that the slot-length
  // ratio (S + beta - 1)/(S + alpha - 1) stays below R.
  const std::uint64_t s_start =
      static_cast<std::uint64_t>(
          (static_cast<__int128>(2 * l_bound + 2) * rho.den) /
          (static_cast<__int128>(rho.num) * (bound_r - 1))) +
      2;
  out.s_start = s_start;

  // Per-probe injection cadence: one unit-cost packet every d slots keeps
  // the per-station rate at most rho/2.
  const std::uint64_t d = static_cast<std::uint64_t>(
      (2 * rho.den + rho.num - 1) / rho.num);
  const std::uint64_t k = l_bound + 2;

  const ProbeResult p1 = probe(factory, 1, s_start, d, k, bound_r);
  const ProbeResult p2 = probe(factory, 2, s_start, d, k, bound_r);

  if (!p1.transmitted || !p2.transmitted) {
    out.kind = CollisionForceOutcome::Kind::kQueueOverflow;
    out.overflow_queue = std::max(p1.queue, p2.queue);
    return out;
  }
  AM_CHECK(p1.first_tx_slot > s_start && p2.first_tx_slot > s_start);
  out.alpha = p1.first_tx_slot - s_start;
  out.beta = p2.first_tx_slot - s_start;

  // Align the *starts* of the two first transmissions:
  //   (T1 - 1) X = (T2 - 1) Y  with  X = c (T2-1), Y = c (T1-1).
  const Tick a1 = static_cast<Tick>(p1.first_tx_slot - 1);
  const Tick a2 = static_cast<Tick>(p2.first_tx_slot - 1);
  const Tick c_min = (kTicksPerUnit + std::min(a1, a2) - 1) / std::min(a1, a2);
  const Tick c_max =
      static_cast<Tick>(bound_r) * kTicksPerUnit / std::max(a1, a2);
  AM_CHECK_MSG(c_min <= c_max,
               "no feasible stretch: alpha=" << out.alpha
                                             << " beta=" << out.beta
                                             << " S=" << s_start);
  const Tick c = c_min;
  const Tick x = c * a2;
  const Tick y = c * a1;
  out.x_ticks = x;
  out.y_ticks = y;

  // Joint run with the stretched slots; each probe's silent prefix is
  // reproduced exactly (neither station hears the other before both
  // transmissions start, at the same instant).
  std::vector<sim::Injection> script;
  for (std::uint64_t i = 0; i < k; ++i) {
    script.push_back({static_cast<Tick>(s_start + i * d) * x, 1, x});
    script.push_back({static_cast<Tick>(s_start + i * d) * y, 2, y});
  }
  std::sort(script.begin(), script.end(),
            [](const sim::Injection& lhs, const sim::Injection& rhs) {
              return lhs.time < rhs.time;
            });

  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = bound_r;
  cfg.allow_control = false;
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.push_back(factory());
  protocols.push_back(factory());
  sim::Engine engine(
      cfg, std::move(protocols),
      std::make_unique<PerStationSlotPolicy>(std::vector<Tick>{x, y}),
      std::make_unique<ScriptedInjector>(std::move(script)));

  const Tick expected_collision = c * a1 * a2;
  sim::StopCondition stop;
  stop.max_time = expected_collision +
                  4 * static_cast<Tick>(bound_r) * kTicksPerUnit;
  stop.predicate = [](const sim::Engine& e) {
    return e.channel_stats().collided >= 1;
  };
  engine.run(stop);
  // Let the partner transmission (ending up to R units later) finalize so
  // the collision is fully accounted.
  engine.run(sim::until(
      engine.now() + 2 * static_cast<Tick>(bound_r) * kTicksPerUnit));

  out.collisions = engine.channel_stats().collided;
  if (out.collisions >= 1) {
    out.kind = CollisionForceOutcome::Kind::kCollisionForced;
    out.collision_time = expected_collision;
  } else if (engine.queue_size(1) > l_bound ||
             engine.queue_size(2) > l_bound) {
    out.kind = CollisionForceOutcome::Kind::kQueueOverflow;
    out.overflow_queue = std::max(engine.queue_size(1), engine.queue_size(2));
  } else {
    out.kind = CollisionForceOutcome::Kind::kNoTransmission;
  }
  return out;
}

}  // namespace asyncmac::adversary
