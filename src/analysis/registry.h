// asyncmac/analysis/registry.h
//
// Name -> protocol factory registry over everything the library ships —
// the paper's algorithms, the experimental extension and every baseline.
// Shared by the CLI, the experiment grid runner and the benches, so
// experiment descriptions can be purely declarative.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.h"

namespace asyncmac::analysis {

/// Factory for a registered protocol name; throws std::invalid_argument
/// on an unknown name. Names:
///   ao-arrow, ca-arrow, adaptive-abs, abs,
///   rrw, mbtf, aloha, beb, silence-tdma, sync-binary-le, listen
sim::ProtocolMaker protocol_maker(const std::string& name);

/// Seed use, declared in each registry entry: true when the automaton
/// draws from its station's RNG (ctx.rng()) — aloha, beb and csma-lbt.
/// Every other registered protocol acts on its queue and the channel
/// feedback alone, so the engine seed never reaches it. Only
/// seed_invariant (analysis/run_spec.h) combines this with the other
/// components' declarations. Throws std::invalid_argument on an unknown
/// name.
bool protocol_draws_rng(const std::string& name);

/// Declared in each registry entry: true when the automaton is correct
/// only if every station's slot boundaries coincide — tree-resolution,
/// whose stations split on shared feedback. materials() refuses such a
/// protocol on an asynchronous schedule. Throws std::invalid_argument
/// on an unknown name.
bool protocol_needs_synchronous_slots(const std::string& name);

/// Convenience: one instance.
std::unique_ptr<sim::Protocol> make_protocol(const std::string& name);

/// Convenience: n instances (one per station).
std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
    const std::string& name, std::uint32_t n);

/// All registered names, sorted.
std::vector<std::string> protocol_names();

}  // namespace asyncmac::analysis
