#include "analysis/registry.h"

#include <map>

#include "baselines/aloha.h"
#include "baselines/beb.h"
#include "baselines/csma_lbt.h"
#include "baselines/listen.h"
#include "baselines/mbtf.h"
#include "baselines/rrw.h"
#include "baselines/silence_tdma.h"
#include "baselines/sync_binary_le.h"
#include "baselines/tree_resolution.h"
#include "core/abs.h"
#include "core/adaptive_abs.h"
#include "core/ao_arrow.h"
#include "core/ca_arrow.h"
#include "util/check.h"

namespace asyncmac::analysis {

namespace {

/// One registered protocol: its factory, whether its automaton draws
/// from the station RNG (ctx.rng()) — the protocol's seed-use
/// declaration — and whether it is correct only on synchronous slots.
struct Entry {
  sim::ProtocolMaker make;
  bool draws_rng = false;
  bool needs_synchronous_slots = false;
};
constexpr bool kDrawsRng = true;
constexpr bool kNeedsSynchronousSlots = true;

const std::map<std::string, Entry>& registry() {
  static const std::map<std::string, Entry> kRegistry = {
      {"ao-arrow",
       {[] { return std::make_unique<core::AoArrowProtocol>(); }}},
      {"ca-arrow",
       {[] { return std::make_unique<core::CaArrowProtocol>(); }}},
      {"adaptive-abs",
       {[] { return std::make_unique<core::AdaptiveAbsProtocol>(); }}},
      {"abs", {[] { return std::make_unique<core::AbsProtocol>(); }}},
      {"rrw", {[] { return std::make_unique<baselines::RrwProtocol>(); }}},
      {"mbtf", {[] { return std::make_unique<baselines::MbtfProtocol>(); }}},
      {"aloha",
       {[] { return std::make_unique<baselines::SlottedAlohaProtocol>(); },
        kDrawsRng}},
      {"beb", {[] { return std::make_unique<baselines::BebProtocol>(); },
               kDrawsRng}},
      {"csma-lbt",
       {[] { return std::make_unique<baselines::CsmaLbtProtocol>(); },
        kDrawsRng}},
      {"silence-tdma",
       {[] {
         return std::make_unique<baselines::SilenceCountTdmaProtocol>();
       }}},
      {"sync-binary-le",
       {[] { return std::make_unique<baselines::SyncBinaryLeProtocol>(); }}},
      {"tree-resolution",
       {[] { return std::make_unique<baselines::TreeResolutionProtocol>(); },
        !kDrawsRng, kNeedsSynchronousSlots}},
      {"listen",
       {[] { return std::make_unique<baselines::ListenProtocol>(); }}},
  };
  return kRegistry;
}

const Entry& entry(const std::string& name) {
  const auto it = registry().find(name);
  AM_REQUIRE(it != registry().end(), "unknown protocol: " + name);
  return it->second;
}

}  // namespace

sim::ProtocolMaker protocol_maker(const std::string& name) {
  return entry(name).make;
}

bool protocol_draws_rng(const std::string& name) {
  return entry(name).draws_rng;
}

bool protocol_needs_synchronous_slots(const std::string& name) {
  return entry(name).needs_synchronous_slots;
}

std::unique_ptr<sim::Protocol> make_protocol(const std::string& name) {
  return protocol_maker(name)();
}

std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
    const std::string& name, std::uint32_t n) {
  const auto maker = protocol_maker(name);
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(maker());
  return out;
}

std::vector<std::string> protocol_names() {
  std::vector<std::string> names;
  for (const auto& [name, e] : registry()) names.push_back(name);
  return names;
}

}  // namespace asyncmac::analysis
