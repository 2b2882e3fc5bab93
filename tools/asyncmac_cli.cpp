// tools/asyncmac_cli — command-line simulator driver.
//
// Run any protocol of the library against any workload/slot adversary
// without writing code:
//
//   asyncmac_cli --protocol=ca-arrow --n=4 --r=2 --rho=0.7
//                --burst=16 --policy=perstation --horizon=100000
//   (one command line; wrapped here for width)
//
// Modes, picked by the subcommand word and then a selector flag before
// any flag value is parsed:
//
//   (default)           one simulation run, stats as text or --json
//   --grid              experiment grid over comma-list dimensions
//   --msr               Max Stable Rate estimate
//   resume <ckpt>       continue a run from a checkpoint file
//   fuzz [...]          property-fuzzing campaign (src/verify/); --repro,
//                       --case-seed and --emit-case select its other modes
//   stats <jsonl>       summarize a telemetry JSONL stream
//   serve [...]         distributed-sweep coordinator (src/sweep/)
//   worker --port=P     distributed-sweep worker
//   live-serve [...]    live channel-emulator daemon (src/live/)
//   live-station [...]  one live station
//
// kFlags is the one flag table. Each row names the modes that read the
// flag; one parse loop serves every mode and refuses a flag the chosen
// mode would ignore, and `--help` prints the rows.
//
// Checkpointing (docs/CHECKPOINT.md): a single run with
// --checkpoint-every=K --checkpoint-dir=D autosaves rotating snapshots
// every K slot events; `resume` rebuilds the engine from the embedded
// RunSpec and continues bit-for-bit. Grid mode takes --checkpoint-dir
// alone and keeps a per-cell manifest so an interrupted sweep restarts at
// the first incomplete cell.
//
// Exit code 0 on success; 1 on fuzz violations / failed replay / bad
// checkpoint / an output that cannot be written; 2 on bad usage.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "analysis/msr.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"
#include "energy/meter.h"
#include "live/daemon.h"
#include "live/station.h"
#include "live/udp.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "sweep/tcp.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "telemetry/summary.h"
#include "trace/renderer.h"
#include "util/parse.h"
#include "verify/campaign.h"
#include "verify/repro.h"

namespace {

using namespace asyncmac;
constexpr Tick U = kTicksPerUnit;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= s.size()) {
    const std::size_t comma = s.find(',', from);
    const std::size_t to = comma == std::string::npos ? s.size() : comma;
    if (to > from) out.push_back(s.substr(from, to - from));
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "asyncmac_cli: " << error
            << "\nrun `asyncmac_cli --help` for the full flag reference\n";
  std::exit(2);
}

// ---- strict argv numeric parsing (util/parse.h) -----------------------
// A malformed or overflowing value exits with a usage message instead of
// an uncaught std::sto* exception (std::terminate); trailing garbage
// ("--n=8x") and silently-wrapping u32 overflow ("--r=4294967297" → 1)
// are rejected rather than truncated.

// Largest time-unit count whose tick conversion (units * U) cannot
// overflow a signed 64-bit Tick.
constexpr std::uint64_t kMaxUnitsArg =
    static_cast<std::uint64_t>(INT64_MAX / kTicksPerUnit);

std::uint64_t arg_u64(const std::string& s, const char* what,
                      std::uint64_t max = UINT64_MAX) {
  try {
    return util::parse_u64(s, what, max);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

std::uint32_t arg_u32(const std::string& s, const char* what,
                      std::uint32_t max = UINT32_MAX) {
  try {
    return util::parse_u32(s, what, max);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

Tick arg_units(const std::string& s, const char* what) {
  return static_cast<Tick>(arg_u64(s, what, kMaxUnitsArg));
}

double arg_finite(const std::string& s, const char* what) {
  try {
    return util::parse_double(s, what);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

/// --restrained-k=K[:jam|reject] — at most K concurrent transmissions;
/// over-capacity ones jam (default) or are rejected.
channel::RestrainedSpec parse_restrained_arg(const std::string& v) {
  const std::size_t colon = v.find(':');
  channel::RestrainedSpec spec;
  spec.k = arg_u32(colon == std::string::npos ? v : v.substr(0, colon),
                   "--restrained-k");
  if (colon != std::string::npos) {
    const std::string mode = v.substr(colon + 1);
    if (mode == "jam")
      spec.jam = true;
    else if (mode == "reject")
      spec.jam = false;
    else
      usage("--restrained-k mode must be jam or reject, got: " + mode);
  }
  return spec;
}

/// --energy-model=TX:LISTEN:SLEEP — enable per-slot energy accounting
/// with the three integer costs (energy/model.h; docs/ENERGY.md).
energy::EnergyModel parse_energy_arg(const std::string& v) {
  const std::size_t c1 = v.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : v.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos)
    usage("--energy-model takes TX:LISTEN:SLEEP integer costs");
  energy::EnergyModel model;
  model.enabled = true;
  model.cost_transmit =
      arg_u64(v.substr(0, c1), "--energy-model transmit cost");
  model.cost_listen =
      arg_u64(v.substr(c1 + 1, c2 - c1 - 1), "--energy-model listen cost");
  model.cost_sleep = arg_u64(v.substr(c2 + 1), "--energy-model sleep cost");
  return model;
}

// ------------------------------------------------------------- the modes

enum Mode : unsigned {
  kRun, kGrid, kMsr, kResume, kFuzz, kFuzzRepro, kFuzzCase, kFuzzEmit,
  kStats, kServe, kServeFuzz, kWorker, kLiveUdp, kLiveVirtual, kLiveStation,
};
constexpr unsigned kModeCount = kLiveStation + 1;
/// How help and refusals name each mode: its subcommand word and selector.
constexpr const char* kModeNames[kModeCount] = {
    "run", "--grid", "--msr", "resume", "fuzz", "fuzz --repro",
    "fuzz --case-seed", "fuzz --emit-case", "stats", "serve",
    "serve --fuzz", "worker", "live-serve", "live-serve --virtual",
    "live-station"};

using Modes = std::uint32_t;  ///< a set of modes, one bit per Mode
constexpr Modes bit(unsigned mode) { return Modes{1} << mode; }
constexpr Modes of(std::initializer_list<Mode> ms) {
  Modes out = 0;
  for (const Mode m : ms) out |= bit(m);
  return out;
}
constexpr Modes kAllModes = bit(kModeCount) - 1;
constexpr Modes kLive = of({kLiveUdp, kLiveVirtual});
/// The modes that describe simulator runs and so read the run flags.
constexpr Modes kRunModes = of({kRun, kGrid, kMsr, kServe}) | kLive;
constexpr Modes kGridModes = of({kGrid, kServe});
constexpr Modes kReportModes = of({kRun, kResume}) | kLive;
constexpr Modes kServeModes = of({kServe, kServeFuzz});
constexpr Modes kFuzzPool = of({kFuzz, kFuzzCase, kFuzzEmit});

/// A subcommand's selector flags: each picks one mode of its family.
struct Selector {
  Mode family;
  const char* flag;
  Mode mode;
};
constexpr Selector kSelectors[] = {
    {kRun, "--grid", kGrid},           {kRun, "--msr", kMsr},
    {kFuzz, "--repro", kFuzzRepro},    {kFuzz, "--case-seed", kFuzzCase},
    {kFuzz, "--emit-case", kFuzzEmit}, {kServe, "--fuzz", kServeFuzz},
    {kLiveUdp, "--virtual", kLiveVirtual}};

constexpr Tick kRunHorizonUnits = 100000;

/// Every mode's settings. The run dimensions stay text until a mode reads
/// them: comma lists for --grid and serve (make_grid_spec), one value
/// elsewhere (check_scalar_dims).
struct Options {
  Mode mode = kRun;
  std::string path;  ///< resume's checkpoint, stats' telemetry file
  // Run flags.
  std::string protocol = "ao-arrow";
  std::string n_list = "4";
  std::string r_list = "2";
  std::string rho_list = "0.5";
  std::string policy = "perstation";
  std::optional<std::string> pattern;  ///< unset = roundrobin
  Tick burst_units = 16;
  std::optional<Tick> horizon_units;  ///< unset: kRunHorizonUnits, or
                                      ///< resume's recorded horizon
  std::uint64_t seed = 1;
  channel::RestrainedSpec restrained;
  energy::EnergyModel energy;
  std::string telemetry_path;
  // The scalar dimensions, set by check_scalar_dims.
  std::uint32_t n = 4;
  std::uint32_t r = 2;
  double rho = 0.5;
  // Reports, grids and checkpoints.
  bool json = false;
  Tick trace_units = 0;
  int seeds = 1;
  unsigned jobs = 0;
  std::string csv_path;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // fuzz and stats.
  std::vector<std::string> pool;  ///< empty = every fuzzable protocol
  std::uint64_t cases = 1000;
  int time_budget = 0;
  bool shrink = true;
  std::string repro_out = "asyncmac_fuzz_repro.json";
  std::string repro_in;
  std::uint64_t case_seed = 0;
  std::uint64_t emit_case = 0;
  std::string campaign_checkpoint;
  std::size_t top = 20;
  // serve, worker, live-serve and live-station.
  std::uint16_t port = 0;  ///< listening: 0 = ephemeral; connecting: required
  std::string port_file;
  std::uint64_t lease_timeout_ms = 10000;
  std::uint64_t heartbeat_ms = 1000;
  std::string host = "127.0.0.1";
  std::optional<std::string> name;  ///< unset: worker, or station-<id>
  std::uint64_t unit_us = 1000;
  std::uint64_t idle_timeout_ms = 30000;
  double emu_loss = 0.0;
  std::uint64_t emu_delay_us = 0;
  std::uint64_t emu_jitter_us = 0;
  std::uint64_t emu_seed = 1;
  std::optional<std::uint32_t> id;
  Tick retry_units = 64;
  int max_retries = 25;
};

[[noreturn]] void print_help();

/// Parses a flag's value into Options; `flag` names it in errors.
using Setter = void (*)(Options&, const std::string& value, const char* flag);

// Setters for one Options field each, by the field's value type.
template <auto F>
void text(Options& o, const std::string& v, const char*) {
  o.*F = v;
}
template <auto F>
void u64(Options& o, const std::string& v, const char* flag) {
  o.*F = arg_u64(v, flag);
}
template <auto F>
void u32(Options& o, const std::string& v, const char* flag) {
  o.*F = arg_u32(v, flag);
}
/// A count an int holds: --seeds, --time-budget, --max-retries.
template <auto F>
void count(Options& o, const std::string& v, const char* flag) {
  o.*F = static_cast<int>(arg_u32(v, flag, INT32_MAX));
}
template <auto F>
void units(Options& o, const std::string& v, const char* flag) {
  o.*F = arg_units(v, flag);
}
void port(Options& o, const std::string& v, const char* flag) {
  o.port = static_cast<std::uint16_t>(arg_u32(v, flag, 65535));
}

/// One row of the flag table. A flag whose meaning differs by mode has
/// one row per meaning, with disjoint mode sets.
struct Flag {
  const char* name;
  const char* metavar;  ///< nullptr: a switch, which takes no value
  Modes modes;          ///< the modes that read it; the rest refuse it
  Setter set;           ///< nullptr: a selector, read by parse_args
  const char* help;
};

const Flag kFlags[] = {
    // The run flags.
    {"--protocol", "P", kRunModes, text<&Options::protocol>,
     "ao-arrow | ca-arrow | adaptive-abs | abs | rrw | mbtf | aloha | beb | "
     "csma-lbt | silence-tdma | sync-binary-le | listen | tree-resolution "
     "(default ao-arrow)"},
    {"--n", "N", kRunModes, text<&Options::n_list>, "stations (default 4)"},
    {"--r", "R", kRunModes, text<&Options::r_list>,
     "asynchrony bound R >= 1 (default 2)"},
    {"--rho", "F", kRunModes & ~of({kMsr}), text<&Options::rho_list>,
     "injection rate in [0, 1] (default 0.5)"},
    {"--burst", "B", kRunModes, units<&Options::burst_units>,
     "burstiness in time units (default 16)"},
    {"--policy", "S", kRunModes, text<&Options::policy>,
     "sync | max | perstation | cyclic | random | stretch-tx (default "
     "perstation)"},
    {"--pattern", "S", kRunModes & ~kGridModes, text<&Options::pattern>,
     "roundrobin | single | random | maxqueue (default roundrobin); grid "
     "cells always inject round-robin saturating traffic"},
    {"--horizon", "T", kRunModes, units<&Options::horizon_units>,
     "simulated time units (default 100000)"},
    {"--seed", "S", kRunModes, u64<&Options::seed>, "master seed (default 1)"},
    {"--restrained-k", "K[:jam|reject]", kRunModes,
     [](Options& o, const std::string& v, const char*) {
       o.restrained = parse_restrained_arg(v);
     },
     "k-restrained channel: at most K concurrent transmissions; "
     "over-capacity ones jam (sent anyway, guaranteed collision; default) "
     "or are rejected (suppressed). 0 = unrestrained"},
    {"--energy-model", "TX:LISTEN:SLEEP", kRunModes & ~of({kMsr}),
     [](Options& o, const std::string& v, const char*) {
       o.energy = parse_energy_arg(v);
     },
     "per-slot energy accounting with the three integer costs (transmit / "
     "listen with a non-empty queue / idle-sleep); observation-only, never "
     "changes simulation results (docs/ENERGY.md)"},
    {"--telemetry", "P", kAllModes & ~of({kStats, kWorker, kLiveStation}),
     text<&Options::telemetry_path>,
     "stream telemetry as JSONL to P (never changes results; "
     "docs/OBSERVABILITY.md)"},
    // Reports.
    {"--json", nullptr, kReportModes,
     [](Options& o, const std::string&, const char*) { o.json = true; },
     "print stats as JSON instead of text"},
    {"--trace", "T", kReportModes, units<&Options::trace_units>,
     "also render the first T time units of the schedule"},
    // Grids and the MSR estimate.
    {"--grid", nullptr, of({kGrid}), nullptr,
     "run the cross product of the comma lists --protocol, --n, --r, --rho "
     "and --policy, times --seeds replications (analysis/experiment.h)"},
    {"--msr", nullptr, of({kMsr}), nullptr,
     "estimate the Max Stable Rate: a binary search over rho"},
    {"--seeds", "K", kGridModes, count<&Options::seeds>,
     "seed replications per cell (default 1); the replicas of a cell that "
     "draws from no seed (not aloha/beb/csma-lbt, not policy random) are "
     "computed once"},
    {"--jobs", "J", of({kGrid, kFuzz}), u32<&Options::jobs>,
     "worker threads, 0 = all cores (default 0); results are "
     "byte-identical for every J"},
    {"--csv", "PATH", kGridModes, text<&Options::csv_path>,
     "also write the records as CSV"},
    // Checkpoints (docs/CHECKPOINT.md).
    {"--checkpoint-every", "K", of({kRun}), u64<&Options::checkpoint_every>,
     "autosave a snapshot every K slot events (needs --checkpoint-dir)"},
    {"--checkpoint-dir", "D", of({kRun}), text<&Options::checkpoint_dir>,
     "rotating snapshot directory (needs --checkpoint-every)"},
    {"--checkpoint-dir", "D", kGridModes, text<&Options::checkpoint_dir>,
     "per-cell manifest directory: a rerun of an interrupted sweep "
     "restarts at its first incomplete cell"},
    {"--horizon", "T", of({kResume}), units<&Options::horizon_units>,
     "run to T time units instead of the checkpoint's recorded horizon"},
    {"--checkpoint-dir", "D", of({kResume}), text<&Options::checkpoint_dir>,
     "keep autosaving into D, at the checkpoint's own --checkpoint-every"},
    // fuzz (src/verify/).
    {"--seed", "S", of({kFuzz, kFuzzEmit, kServeFuzz}), u64<&Options::seed>,
     "campaign seed; case K's seed derives from it (default 1)"},
    {"--cases", "K", of({kFuzz, kServeFuzz}), u64<&Options::cases>,
     "generated cases (default 1000)"},
    {"--time-budget", "T", of({kFuzz}), count<&Options::time_budget>,
     "wall-clock cap in seconds, 0 = unlimited"},
    {"--protocol", "LIST", kFuzzPool,
     [](Options& o, const std::string& v, const char*) {
       o.pool = split_list(v);
     },
     "restrict the generated protocol pool"},
    {"--no-shrink", nullptr, of({kFuzz}),
     [](Options& o, const std::string&, const char*) { o.shrink = false; },
     "skip counterexample minimization"},
    {"--repro-out", "P", of({kFuzz, kFuzzEmit}), text<&Options::repro_out>,
     "failure repro path (default asyncmac_fuzz_repro.json)"},
    {"--checkpoint", "P", of({kFuzz}), text<&Options::campaign_checkpoint>,
     "write a resumable chunk cursor to P; a rerun with the same campaign "
     "resumes after the last completed chunk (docs/CHECKPOINT.md)"},
    {"--repro", "FILE", of({kFuzzRepro}), text<&Options::repro_in>,
     "replay a repro file instead of a campaign"},
    {"--case-seed", "X", of({kFuzzCase}), u64<&Options::case_seed>,
     "run the one scenario case seed X derives"},
    {"--emit-case", "I", of({kFuzzEmit}), u64<&Options::emit_case>,
     "pin campaign case I as a clean repro"},
    {"--top", "N", of({kStats}), u64<&Options::top>,
     "show the top N counters (default 20)"},
    // serve and worker (docs/DISTRIBUTED.md).
    {"--fuzz", nullptr, of({kServeFuzz}), nullptr,
     "distribute a fuzz campaign (chunked cases) instead of a grid"},
    {"--port", "P", kServeModes | of({kLiveUdp}), port,
     "listen port (TCP for serve, UDP for live-serve); 0 = ephemeral "
     "(default 0)"},
    {"--port-file", "PATH", kServeModes | of({kLiveUdp}),
     text<&Options::port_file>, "write the bound port to PATH (scripts/CI)"},
    {"--lease-timeout-ms", "T", kServeModes, u64<&Options::lease_timeout_ms>,
     "reassign a leased unit after T ms without worker liveness (default "
     "10000)"},
    {"--heartbeat-ms", "T", kServeModes, u64<&Options::heartbeat_ms>,
     "heartbeat cadence asked of workers (default 1000)"},
    {"--port", "P", of({kWorker, kLiveStation}), port,
     "the coordinator's (worker) or daemon's (live-station) port "
     "(required)"},
    {"--host", "H", of({kWorker, kLiveStation}), text<&Options::host>,
     "the coordinator's or daemon's host (default 127.0.0.1)"},
    {"--name", "S", of({kWorker, kLiveStation}), text<&Options::name>,
     "name in the peer's logs (default worker, or station-I)"},
    // live-serve and live-station (docs/LIVE.md).
    {"--virtual", nullptr, of({kLiveVirtual}), nullptr,
     "daemon and stations in-process on a virtual clock (deterministic "
     "differential mode)"},
    {"--unit-us", "N", kLive | of({kLiveStation}), u64<&Options::unit_us>,
     "wall microseconds per time unit (default 1000); the daemon and its "
     "stations must agree"},
    {"--idle-timeout-ms", "T", of({kLiveUdp}), u64<&Options::idle_timeout_ms>,
     "exit 1 after T ms without a datagram (default 30000)"},
    {"--emu-loss", "F", kLive,
     [](Options& o, const std::string& v, const char* flag) {
       o.emu_loss = arg_finite(v, flag);
     },
     "per-datagram drop probability in [0, 1)"},
    {"--emu-delay-us", "N", kLive, u64<&Options::emu_delay_us>,
     "fixed one-way latency (microseconds)"},
    {"--emu-jitter-us", "N", kLive, u64<&Options::emu_jitter_us>,
     "extra uniform latency in [0, N] microseconds"},
    {"--emu-seed", "S", kLive, u64<&Options::emu_seed>,
     "emulation rng seed (default 1)"},
    {"--id", "I", of({kLiveStation}), u32<&Options::id>,
     "station id in 1..n (required)"},
    {"--retry-units", "T", of({kLiveStation}), units<&Options::retry_units>,
     "reply timeout before a retransmit (default 64)"},
    {"--max-retries", "K", of({kLiveStation}), count<&Options::max_retries>,
     "unanswered retransmits before giving up (default 25)"},
    {"--help", nullptr, kAllModes,
     [](Options&, const std::string&, const char*) { print_help(); },
     "print this reference (also -h, or `asyncmac_cli help`)"},
};

std::string mode_list(Modes modes) {
  std::string out;
  for (unsigned m = 0; m < kModeCount; ++m)
    if (modes & bit(m))
      out += (out.empty() ? "" : ", ") + std::string(kModeNames[m]);
  return out;
}

[[noreturn]] void print_help() {
  std::cout <<
      "asyncmac_cli - discrete-event MAC simulator driver\n"
      "\n"
      "usage:\n"
      "  asyncmac_cli [run flags]              one simulation run\n"
      "  asyncmac_cli --grid [run flags]       experiment grid sweep\n"
      "  asyncmac_cli --msr [run flags]        Max Stable Rate estimate\n"
      "  asyncmac_cli resume <ckpt|dir> [...]  continue a checkpointed run\n"
      "                 (a directory resumes its newest ckpt-*.snap)\n"
      "  asyncmac_cli fuzz [fuzz flags]        property-fuzzing campaign\n"
      "  asyncmac_cli stats <file> [--top=N]   summarize telemetry JSONL\n"
      "  asyncmac_cli serve [serve flags]      distributed-sweep coordinator\n"
      "  asyncmac_cli worker --port=P          distributed-sweep worker\n"
      "  asyncmac_cli live-serve [...]         live channel-emulator daemon\n"
      "  asyncmac_cli live-station [...]       live station client\n"
      "  asyncmac_cli --help                   this reference\n"
      "\n"
      "`resume` exits 1 with a typed error (io, truncated, bad-magic,\n"
      "bad-version, bad-crc, corrupt, mismatch) when a file cannot be\n"
      "resumed. `serve` prints the stdout and --csv the same sweep prints\n"
      "under --grid, and a killed worker's leases are reassigned.\n"
      "`live-serve` prints what run mode prints, and its stability verdict\n"
      "on stderr; `live-station` exits 0 when the daemon ends the run.\n"
      "\n"
      "flags (a value flag takes --flag=V or --flag V; each flag lists the\n"
      "modes that read it, and every other mode refuses it):\n";
  constexpr std::size_t kIndent = 24;
  constexpr std::size_t kWidth = 78;
  for (const Flag& f : kFlags) {
    // The help words, then the mode names, each kept on one line.
    std::vector<std::string> words;
    std::istringstream help(f.help);
    for (std::string w; help >> w;) words.push_back(w);
    const char* open = "[";
    for (unsigned m = 0; m < kModeCount; ++m)
      if (f.modes & bit(m)) {
        std::string word = open;
        word += kModeNames[m];
        word += ',';
        words.push_back(std::move(word));
        open = "";
      }
    words.back().back() = ']';
    // Appended piece by piece: g++ 12 at -O3 reports a false
    // -Werror=restrict on `const char* + std::string`.
    std::string line = "  ";
    line += f.name;
    if (f.metavar) {
      line += '=';
      line += f.metavar;
    }
    if (line.size() >= kIndent) {
      std::cout << line << "\n";
      line.clear();
    }
    line.resize(kIndent, ' ');
    bool fresh = true;  // no word on this line yet
    for (const std::string& w : words) {
      if (!fresh && line.size() + 1 + w.size() > kWidth) {
        std::cout << line << "\n";
        line.assign(kIndent, ' ');
        fresh = true;
      }
      line += (fresh ? "" : " ") + w;
      fresh = false;
    }
    std::cout << line << "\n";
  }
  std::cout << "\nexit codes: 0 success; 1 fuzz violations, failed replay, "
               "bad checkpoint or\nunwritable output; 2 bad usage\n";
  std::exit(0);
}

bool takes_value(const std::string& flag) {
  for (const Flag& f : kFlags)
    if (flag == f.name) return f.metavar != nullptr;
  return false;
}

/// The one argv parser. The mode comes first, from the subcommand word
/// and the selector flags; then every flag is checked against the modes
/// its rows name and parsed. Each refusal exits 2 before any side effect.
Options parse_args(int argc, char** argv) {
  Options o;
  int i = 1;
  if (argc > 1) {
    const std::string word = argv[1];
    if (word == "help") print_help();
    for (const Mode m : {kResume, kFuzz, kStats, kServe, kWorker, kLiveUdp,
                         kLiveStation})
      if (word == kModeNames[m]) {
        o.mode = m;
        i = 2;
      }
  }
  // (flag, value) pairs; a positional is ("", value). The table says which
  // flags take a value, so `--flag value` needs no guess.
  std::vector<std::pair<std::string, std::optional<std::string>>> args;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h") arg = "--help";
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0)
      args.emplace_back("", arg);
    else if (eq != std::string::npos)
      args.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    else if (takes_value(arg) && i + 1 < argc)
      args.emplace_back(arg, argv[++i]);
    else
      args.emplace_back(arg, std::nullopt);
  }

  const Mode family = o.mode;
  for (const auto& [flag, value] : args)
    for (const Selector& s : kSelectors)
      if (s.family == family && flag == s.flag) {
        if (o.mode != family && o.mode != s.mode)
          usage(flag + " cannot be combined with " + kModeNames[o.mode]);
        o.mode = s.mode;
      }

  for (const auto& [flag, value] : args) {
    if (flag.empty()) {
      if (o.mode != kResume && o.mode != kStats)
        usage("unknown argument: " + *value);
      if (!o.path.empty())
        usage(std::string(kModeNames[o.mode]) + " takes one file");
      o.path = *value;
      continue;
    }
    const Flag* row = nullptr;
    Modes readers = 0;
    for (const Flag& f : kFlags)
      if (flag == f.name) {
        readers |= f.modes;
        if (f.modes & bit(o.mode)) row = &f;
      }
    if (readers == 0) usage("unknown argument: " + flag);
    if (row == nullptr)
      usage(flag + " does not apply to " + kModeNames[o.mode] +
            " (read by: " + mode_list(readers) + ")");
    if (row->metavar != nullptr && !value) usage(flag + " needs a value");
    if (row->metavar == nullptr && value) usage(flag + " takes no value");
    if (row->set != nullptr) row->set(o, value.value_or(""), row->name);
  }
  return o;
}

// Turn telemetry on (all instruments + JSONL streaming), once a mode's
// checks have passed. Exits with usage() if the file cannot be opened.
void start_telemetry(const Options& o) {
  if (!o.telemetry_path.empty() &&
      !telemetry::enable_to_file(o.telemetry_path))
    usage("cannot write " + o.telemetry_path);
}

/// Single runs, --msr and live-serve describe exactly one run: scalar
/// dimensions, validated the same way in every mode.
void check_scalar_dims(Options& opt) {
  for (const std::string* list :
       {&opt.n_list, &opt.r_list, &opt.rho_list, &opt.protocol, &opt.policy})
    if (list->find(',') != std::string::npos)
      usage("comma lists need --grid or serve");
  opt.n = arg_u32(opt.n_list, "--n");
  opt.r = arg_u32(opt.r_list, "--r");
  // arg_finite already rejects nan/inf (which would pass the range
  // check below: comparisons against NaN are all false).
  opt.rho = arg_finite(opt.rho_list, "--rho");
  if (opt.n < 1) usage("--n must be >= 1");
  if (opt.r < 1) usage("--r must be >= 1");
  if (opt.rho < 0 || opt.rho > 1) usage("--rho must lie in [0, 1]");
}

/// Grid dimensions from the parsed comma-lists — shared by --grid and
/// `serve` so a distributed sweep runs exactly the spec a local one
/// would (stdout parity depends on it).
analysis::ExperimentSpec make_grid_spec(const Options& opt) {
  if (opt.seeds < 1) usage("--seeds must be >= 1");
  analysis::ExperimentSpec spec;
  spec.protocols = split_list(opt.protocol);
  spec.slot_policies = split_list(opt.policy);
  spec.station_counts.clear();
  for (const auto& v : split_list(opt.n_list))
    spec.station_counts.push_back(arg_u32(v, "--n"));
  spec.bounds_r.clear();
  for (const auto& v : split_list(opt.r_list))
    spec.bounds_r.push_back(arg_u32(v, "--r"));
  spec.rho_percents.clear();
  for (const auto& v : split_list(opt.rho_list)) {
    // arg_finite rejects nan/inf — a NaN in the list would sail through
    // the range check below.
    const double rho = arg_finite(v, "--rho");
    if (rho < 0 || rho > 1) usage("--rho values must lie in [0, 1]");
    spec.rho_percents.push_back(static_cast<int>(std::lround(rho * 100)));
  }
  spec.burst_units = opt.burst_units;
  spec.horizon_units = opt.horizon_units.value_or(kRunHorizonUnits);
  spec.seed = opt.seed;
  spec.seeds = opt.seeds;
  spec.jobs = opt.jobs;
  spec.restrained = opt.restrained;
  spec.energy = opt.energy;
  spec.checkpoint_dir = opt.checkpoint_dir;
  return spec;
}

/// Opens --csv, header written, once `spec` is known to plan, so a
/// refused spec exits 2 leaving no file and a path that cannot be written
/// exits 1 before any unit runs. Without --csv, `csv` stays empty.
bool open_csv(const Options& opt, const analysis::ExperimentSpec& spec,
              std::optional<analysis::RecordsCsv>& csv) {
  if (opt.csv_path.empty()) return true;
  try {
    analysis::plan_grid(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  csv.emplace(opt.csv_path, spec.energy.enabled);
  if (csv->ok()) return true;
  std::cerr << "asyncmac_cli: cannot write " << opt.csv_path << "\n";
  return false;
}

/// Table + optional CSV, shared by --grid and `serve`: the distributed
/// path must produce byte-identical stdout and CSV (the sweep-smoke CI
/// job diffs both against a single-process control).
int print_grid_results(const std::vector<analysis::ExperimentRecord>& records,
                       const std::string& csv_path,
                       std::optional<analysis::RecordsCsv>& csv) {
  std::cout << analysis::to_table(records);
  if (!csv) return 0;
  csv->write(records);
  if (!csv->ok()) {
    std::cerr << "asyncmac_cli: cannot write " << csv_path << "\n";
    return 1;
  }
  std::cout << "(" << records.size() << " records written to " << csv_path
            << ")\n";
  return 0;
}

int run_experiment_grid(const Options& opt) {
  const analysis::ExperimentSpec spec = make_grid_spec(opt);
  std::optional<analysis::RecordsCsv> csv;
  if (!open_csv(opt, spec, csv)) return 1;
  start_telemetry(opt);
  std::vector<analysis::ExperimentRecord> records;
  try {
    records = analysis::run_grid(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli: grid checkpoint in " << opt.checkpoint_dir
              << ": " << e.what() << "\n";
    return 1;
  }
  return print_grid_results(records, opt.csv_path, csv);
}

/// The one run that single-run mode, --msr and live-serve describe (the
/// scalar dimensions must be checked). A checkpointed run embeds it, so
/// `resume` rebuilds exactly this engine.
analysis::RunSpec make_run_spec(const Options& opt) {
  analysis::RunSpec spec;
  spec.protocol = opt.protocol;
  spec.n = opt.n;
  spec.bound_r = opt.r;
  spec.slot_policy = opt.policy;
  spec.injector.rho = util::Ratio::from_double(opt.rho);
  spec.injector.burst_ticks = opt.burst_units * U;
  spec.injector.seed = opt.seed + 1;
  if (opt.pattern == "maxqueue")
    spec.injector.kind = "maxqueue";
  else if (opt.pattern)
    spec.injector.pattern = *opt.pattern;
  spec.seed = opt.seed;
  spec.horizon_units = opt.horizon_units.value_or(kRunHorizonUnits);
  spec.record_trace = opt.trace_units > 0;
  spec.checkpoint_interval = opt.checkpoint_every;
  spec.restrained = opt.restrained;
  spec.energy = opt.energy;
  return spec;
}

/// Stats text/JSON + optional trace render, shared between run mode,
/// `resume` and `live-serve` (the determinism contract makes their
/// output identical for the same effective run — the resume smoke test
/// and the live-smoke differential both diff it byte-for-byte, which is
/// why this takes the result components rather than an engine: the live
/// daemon produces the same stats/ledger/trace without one).
void report_run(const analysis::RunSpec& spec, double rho,
                const metrics::RunStats& s, const channel::LedgerStats& ch,
                const std::vector<trace::SlotRecord>& slots, bool json,
                Tick trace_units,
                const energy::EnergyMeter* meter = nullptr) {
  // The energy block (text and JSON) is emitted only for enabled runs, so
  // a run without --energy-model prints byte-identical output to builds
  // that predate the energy subsystem.
  const energy::EnergyModel& model = spec.energy;
  const bool energy_on = meter != nullptr && model.enabled;
  if (json) {
    std::cout << metrics::to_json(s, &ch, true, energy_on ? meter : nullptr,
                                  energy_on ? &model : nullptr);
  } else {
    std::cout << "protocol=" << spec.protocol << " n=" << spec.n
              << " R=" << spec.bound_r << " rho=" << rho
              << " policy=" << spec.slot_policy << " horizon="
              << spec.horizon_units << "\n"
              << "  injected   " << s.injected_packets << " packets ("
              << to_units(s.injected_cost) << " cost units)\n"
              << "  delivered  " << s.delivered_packets << "\n"
              << "  queued     " << s.queued_packets << " (max cost "
              << to_units(s.max_queued_cost) << " units)\n"
              << "  channel    " << ch.transmissions << " transmissions, "
              << ch.successful << " successful, " << ch.collided
              << " collided, " << ch.control_transmissions << " control\n";
    if (!s.latency.empty())
      std::cout << "  latency    p50 " << to_units(s.latency.quantile(0.5))
                << "  p99 " << to_units(s.latency.quantile(0.99))
                << "  max " << to_units(s.latency.max()) << " (units)\n";
    if (energy_on) {
      std::cout << "  energy     " << meter->total_charge(model)
                << " total (peak station "
                << meter->peak_station_charge(model) << ", costs "
                << model.cost_transmit << ":" << model.cost_listen << ":"
                << model.cost_sleep << ")";
      if (s.delivered_packets > 0)
        std::cout << ", "
                  << static_cast<double>(meter->total_charge(model)) /
                         static_cast<double>(s.delivered_packets)
                  << " per delivery";
      std::cout << "\n";
    }
  }
  if (trace_units > 0) {
    trace::RenderOptions r;
    r.to = trace_units * U;
    std::cout << "\n" << trace::render_schedule(slots, r);
  }
}

int run_single(Options& opt) {
  if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty())
    usage("--checkpoint-every needs --checkpoint-dir");
  if (!opt.checkpoint_dir.empty() && opt.checkpoint_every == 0)
    usage("single-run --checkpoint-dir needs --checkpoint-every");
  check_scalar_dims(opt);
  start_telemetry(opt);
  const analysis::RunSpec spec = make_run_spec(opt);
  std::unique_ptr<sim::Engine> engine;
  try {
    engine = analysis::build_engine(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  // The saver's SnapshotError (such as a directory that cannot be
  // created) exits 1.
  std::optional<snapshot::AutoSaver> saver;
  try {
    const sim::StopCondition stop = sim::until(spec.horizon_units * U);
    if (opt.checkpoint_every > 0)
      saver.emplace(opt.checkpoint_dir, spec).run(*engine, stop);
    else
      engine->run(stop);
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli: autosave failed: " << e.what() << "\n";
    return 1;
  }
  telemetry::emit(
      "run.done",
      {{"protocol", opt.protocol},
       {"injected", engine->stats().injected_packets},
       {"delivered", engine->stats().delivered_packets}});
  report_run(spec, opt.rho, engine->stats(), engine->channel_stats(),
             engine->trace().slots(), opt.json, opt.trace_units,
             &engine->energy_meter());
  if (saver && !saver->latest().empty())
    std::cerr << "checkpoint: " << saver->latest()
              << " (continue: asyncmac_cli resume " << saver->latest()
              << ")\n";
  return 0;
}

int run_msr(Options& opt) {
  check_scalar_dims(opt);
  start_telemetry(opt);
  const analysis::RunSpec spec = make_run_spec(opt);
  try {
    (void)analysis::materials(spec);  // unknown names are usage errors
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  analysis::MsrConfig cfg;
  cfg.probe.horizon = spec.horizon_units * U;
  cfg.base_seed = opt.seed;
  const auto res = analysis::estimate_msr(analysis::rate_factory(spec), cfg);
  std::cout << "protocol=" << opt.protocol << " n=" << opt.n
            << " R=" << opt.r << " policy=" << opt.policy
            << "  measured MSR = " << res.msr_pct << "% (" << res.probes
            << " probes)\n";
  return 0;
}

// ------------------------------------------------------------------- fuzz

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// False, with a message, when `path` cannot be written (exit 1 then).
bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) std::cerr << "asyncmac_cli: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

int replay_repro_file(const Options& opt) {
  verify::Repro repro;
  try {
    repro = verify::parse_repro_json(read_text_file(opt.repro_in));
    // A scenario no engine can be built for (an unknown name, a protocol
    // on slots it refuses) is a bad file, not a replay that diverged.
    (void)analysis::materials(repro.scenario);
  } catch (const std::invalid_argument& e) {
    usage(std::string("bad repro file: ") + e.what());
  }
  const auto outcome = verify::replay_repro(repro);
  std::cout << "repro: " << repro.scenario.describe() << "\n"
            << "recorded: "
            << (repro.violation.empty() ? std::string("clean")
                                        : repro.violation)
            << "\n"
            << "replay:   "
            << (outcome.case_result.ok ? std::string("clean")
                                       : outcome.case_result.what)
            << "\n";
  if (!repro.trace_text.empty())
    std::cout << "trace:    "
              << (outcome.trace_matches ? "byte-identical" : "DIVERGED")
              << "\n";
  std::cout << (outcome.reproduced ? "REPRODUCED\n" : "NOT REPRODUCED\n");
  return outcome.reproduced ? 0 : 1;
}

int run_single_case(const Options& opt) {
  const verify::Scenario s =
      opt.pool.empty() ? verify::scenario_from_seed(opt.case_seed)
                       : verify::scenario_from_seed(opt.case_seed, opt.pool);
  std::cout << "case: " << s.describe() << "\n";
  const auto r = verify::run_case(s);
  if (r.ok) {
    std::cout << "clean\n";
    return 0;
  }
  std::cout << "VIOLATION: " << r.what << "\n";
  return 1;
}

int emit_corpus_case(const Options& opt) {
  const verify::ScenarioGen gen(opt.seed, opt.pool);
  const verify::Scenario s = gen.generate(opt.emit_case);
  const auto r = verify::run_case(s);
  if (!r.ok) {
    std::cerr << "refusing to pin a violating case: " << r.what << "\n";
    return 1;
  }
  if (!write_text_file(opt.repro_out,
                       verify::to_json(verify::make_repro(s, ""))))
    return 1;
  std::cout << "pinned case " << opt.emit_case << " (seed " << s.case_seed
            << ") to " << opt.repro_out << "\n  " << s.describe() << "\n";
  return 0;
}

int run_fuzz(const Options& opt) {
  if (opt.cases < 1) usage("--cases must be >= 1");
  try {
    for (const std::string& name : opt.pool)
      (void)analysis::protocol_maker(name);  // an unknown name throws
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  start_telemetry(opt);
  if (opt.mode == kFuzzRepro) return replay_repro_file(opt);
  if (opt.mode == kFuzzCase) return run_single_case(opt);
  if (opt.mode == kFuzzEmit) return emit_corpus_case(opt);

  verify::CampaignConfig cfg;
  cfg.seed = opt.seed;
  cfg.cases = opt.cases;
  cfg.jobs = opt.jobs;
  cfg.time_budget_seconds = opt.time_budget;
  cfg.shrink = opt.shrink;
  cfg.protocols = opt.pool;
  cfg.checkpoint_path = opt.campaign_checkpoint;

  std::cout << "fuzz: seed=" << opt.seed << " cases=" << opt.cases
            << " jobs=" << opt.jobs << "\n";
  verify::CampaignResult result;
  try {
    result = verify::run_campaign(cfg);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli fuzz: " << opt.campaign_checkpoint << ": "
              << e.what() << "\n";
    return 1;
  }
  std::cout << verify::summarize(result);
  if (result.failures.empty()) return 0;

  // Write the minimal counterexample (or the raw first failure when
  // shrinking is off) as a replayable repro file.
  const verify::Scenario& worst =
      result.shrunk_valid ? result.shrunk : result.failures.front().scenario;
  const std::string& violation = result.shrunk_valid
                                     ? result.shrunk_violation
                                     : result.failures.front().verdict.violation;
  if (!write_text_file(opt.repro_out,
                       verify::to_json(verify::make_repro(worst, violation))))
    return 1;
  std::cout << "repro written to " << opt.repro_out
            << " (replay: asyncmac_cli fuzz --repro " << opt.repro_out
            << ")\n";
  return 1;
}

// ------------------------------------------------------------------ stats

int run_stats(const Options& opt) {
  if (opt.path.empty()) usage("stats needs a telemetry JSONL file");
  std::ifstream in(opt.path);
  if (!in) usage("cannot read " + opt.path);
  try {
    const auto summary = telemetry::summarize_stream(in);
    std::cout << telemetry::render_summary(summary, opt.top);
  } catch (const std::invalid_argument& e) {
    std::cerr << "asyncmac_cli stats: " << opt.path << ": " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------- resume

int run_resume(const Options& opt) {
  if (opt.path.empty()) usage("resume needs a checkpoint file or directory");
  start_telemetry(opt);

  // A directory means "the newest autosave in it" (the highest AutoSaver
  // counter, snapshot::newest_checkpoint).
  std::string path = opt.path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    const std::string best = snapshot::newest_checkpoint(path);
    if (best.empty()) {
      std::cerr << "asyncmac_cli resume: " << path
                << ": no ckpt-*.snap files\n";
      return 1;
    }
    path = best;
  }

  snapshot::ResumedRun run;
  try {
    run = snapshot::resume_checkpoint(path);
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli resume: " << path << ": " << e.what() << "\n";
    return 1;
  }
  analysis::RunSpec spec = run.spec;
  if (opt.horizon_units) spec.horizon_units = *opt.horizon_units;

  // Keep autosaving when asked to (the cadence is baked into the
  // checkpoint; a spec without one cannot re-arm from here).
  if (!opt.checkpoint_dir.empty() && spec.checkpoint_interval == 0)
    usage("this checkpoint was written without --checkpoint-every; "
          "--checkpoint-dir cannot re-arm autosaving");
  try {
    std::optional<snapshot::AutoSaver> saver;
    if (!opt.checkpoint_dir.empty()) saver.emplace(opt.checkpoint_dir, spec);
    std::cerr << "resumed " << spec.protocol << " n=" << spec.n
              << " from " << path << " at t=" << to_units(run.engine->now())
              << " units\n";
    const sim::StopCondition stop = sim::until(spec.horizon_units * U);
    if (saver)
      saver->run(*run.engine, stop);
    else
      run.engine->run(stop);
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli resume: autosave failed: " << e.what() << "\n";
    return 1;
  }
  telemetry::emit(
      "run.done",
      {{"protocol", spec.protocol},
       {"injected", run.engine->stats().injected_packets},
       {"delivered", run.engine->stats().delivered_packets}});
  const double rho =
      spec.has_injector ? spec.injector.rho.to_double() : 0.0;
  report_run(spec, rho, run.engine->stats(), run.engine->channel_stats(),
             run.engine->trace().slots(), opt.json, opt.trace_units,
             &run.engine->energy_meter());
  return 0;
}

// ------------------------------------------------------- serve / worker

int run_serve(const Options& opt) {
  if (opt.lease_timeout_ms == 0) usage("--lease-timeout-ms must be > 0");
  if (opt.cases < 1) usage("--cases must be >= 1");
  sweep::ServeOptions srv;
  srv.port = opt.port;
  srv.coord.lease_timeout_ms = opt.lease_timeout_ms;
  srv.coord.heartbeat_ms = opt.heartbeat_ms;
  if (opt.mode == kServeFuzz) {
    srv.coord.job.kind = sweep::JobKind::kFuzz;
    srv.coord.job.fuzz.seed = opt.seed;
    srv.coord.job.fuzz.cases = opt.cases;
  } else {
    srv.coord.job.kind = sweep::JobKind::kGrid;
    srv.coord.job.grid = make_grid_spec(opt);
    srv.coord.checkpoint_dir = opt.checkpoint_dir;
  }
  std::optional<analysis::RecordsCsv> csv;
  if (!open_csv(opt, srv.coord.job.grid, csv)) return 1;
  start_telemetry(opt);
  // Progress and the bound port go to stderr: stdout stays byte-identical
  // to the same sweep run locally with --grid.
  srv.on_listening = [&](std::uint16_t port) {
    std::cerr << "serve: listening on port " << port << "\n";
    std::string err;
    if (!opt.port_file.empty() &&
        !live::write_port_file(opt.port_file, port, &err))
      throw std::runtime_error("port file: " + err);
  };

  sweep::ServeOutcome outcome;
  try {
    outcome = sweep::serve(srv);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli serve: " << e.what() << "\n";
    return 1;
  } catch (const std::runtime_error& e) {
    std::cerr << "asyncmac_cli serve: " << e.what() << "\n";
    return 1;
  }

  auto& reg = telemetry::Registry::global();
  telemetry::emit(
      "sweep.done",
      {{"leases", reg.counter("sweep.leases").value()},
       {"reassigns", reg.counter("sweep.reassigns").value()},
       {"dup_results", reg.counter("sweep.dup_results").value()},
       {"worker_deaths", reg.counter("sweep.worker_deaths").value()}});

  if (opt.mode == kServeFuzz) {
    // Same summary run_campaign prints for these verdicts (shrinking is
    // coordinator-local work a distributed run does not repeat).
    verify::CampaignResult result;
    result.cases_requested = opt.cases;
    result.cases_run = outcome.verdicts.size();
    result.verdicts = outcome.verdicts;
    for (const auto& v : result.verdicts)
      if (!v.ok)
        result.failures.push_back(
            {v, verify::scenario_from_seed(v.case_seed)});
    std::cout << verify::summarize(result);
    return result.failures.empty() ? 0 : 1;
  }
  return print_grid_results(outcome.records, opt.csv_path, csv);
}

int run_worker(const Options& opt) {
  if (opt.port == 0) usage("worker needs --port");
  sweep::WorkerOptions worker;
  worker.host = opt.host;
  worker.port = opt.port;
  if (opt.name) worker.name = *opt.name;
  try {
    return sweep::run_worker(worker);
  } catch (const std::runtime_error& e) {
    std::cerr << "asyncmac_cli worker: " << e.what() << "\n";
    return 1;
  }
}

// ------------------------------------------------ live-serve / live-station

/// Wall microseconds -> virtual-clock ticks under --unit-us.
Tick emu_us_to_ticks(std::uint64_t us, std::uint64_t unit_us) {
  return static_cast<Tick>(us) * U / static_cast<Tick>(unit_us);
}

int run_live_serve(Options& opt) {
  // A live daemon emulates exactly one run.
  check_scalar_dims(opt);
  if (opt.emu_loss < 0 || opt.emu_loss >= 1)
    usage("--emu-loss must lie in [0, 1)");
  if (opt.unit_us < 1) usage("--unit-us must be >= 1");
  if (opt.idle_timeout_ms < 1) usage("--idle-timeout-ms must be > 0");
  start_telemetry(opt);

  live::DaemonConfig dc;
  dc.spec = make_run_spec(opt);

  if (opt.mode == kLiveVirtual) {
    // Whole stack in-process on the virtual clock: deterministic, and
    // stdout is byte-identical to the same scenario in run mode (the
    // live-smoke CI job diffs the two).
    live::VirtualRunOptions vopt;
    vopt.knobs.loss = opt.emu_loss;
    vopt.knobs.delay = emu_us_to_ticks(opt.emu_delay_us, opt.unit_us);
    vopt.knobs.jitter = emu_us_to_ticks(opt.emu_jitter_us, opt.unit_us);
    vopt.knobs.seed = opt.emu_seed;
    live::VirtualRunReport rep;
    try {
      rep = live::run_virtual(dc.spec, vopt);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    if (rep.daemon_failed) {
      std::cerr << "asyncmac_cli live-serve: run poisoned: " << rep.reason
                << "\n";
      return 1;
    }
    if (!rep.completed || rep.station_exit_max != 0) {
      std::cerr << "asyncmac_cli live-serve: virtual run did not complete\n";
      return 1;
    }
    telemetry::emit("live.done",
                    {{"protocol", dc.spec.protocol},
                     {"injected", rep.stats.injected_packets},
                     {"delivered", rep.stats.delivered_packets}});
    report_run(dc.spec, opt.rho, rep.stats, rep.channel, rep.trace,
               opt.json, opt.trace_units, &rep.energy);
    // Verdict on stderr: stdout must stay identical to run mode, which
    // has no stability probe.
    std::cerr << "live: verdict=" << analysis::to_string(rep.verdict) << " ("
              << rep.samples.size() << " samples)\n";
    return 0;
  }

  std::unique_ptr<live::Daemon> daemon;
  try {
    daemon = std::make_unique<live::Daemon>(dc);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  live::UdpServeOptions uopt;
  uopt.port = opt.port;
  uopt.port_file = opt.port_file;
  uopt.unit_us = opt.unit_us;
  uopt.idle_timeout_ms = opt.idle_timeout_ms;
  uopt.emu_loss = opt.emu_loss;
  uopt.emu_delay_us = opt.emu_delay_us;
  uopt.emu_jitter_us = opt.emu_jitter_us;
  uopt.emu_seed = opt.emu_seed;
  uopt.on_listening = [](std::uint16_t port) {
    std::cerr << "live-serve: listening on UDP port " << port << "\n";
  };
  std::string err;
  const int rc = live::serve_udp(*daemon, uopt, &err);
  if (rc != 0) {
    std::cerr << "asyncmac_cli live-serve: " << err << "\n";
    return rc;
  }
  telemetry::emit("live.done",
                  {{"protocol", dc.spec.protocol},
                   {"injected", daemon->stats().injected_packets},
                   {"delivered", daemon->stats().delivered_packets}});
  report_run(dc.spec, opt.rho, daemon->stats(),
             daemon->live_channel_stats(), daemon->trace().slots(),
             opt.json, opt.trace_units, &daemon->energy_meter());
  std::cerr << "live: verdict=" << analysis::to_string(daemon->verdict())
            << " (" << daemon->backlog_samples().size() << " samples)\n";
  return 0;
}

int run_live_station(const Options& opt) {
  if (opt.port == 0) usage("live-station needs --port");
  if (!opt.id || *opt.id < 1) usage("live-station needs --id >= 1");
  if (opt.retry_units < 1) usage("--retry-units must be >= 1");
  if (opt.max_retries < 1) usage("--max-retries must be >= 1");
  if (opt.unit_us < 1) usage("--unit-us must be >= 1");
  live::UdpStationOptions station;
  station.host = opt.host;
  station.port = opt.port;
  station.unit_us = opt.unit_us;
  station.station.id = *opt.id;
  station.station.name =
      opt.name.value_or("station-" + std::to_string(*opt.id));
  station.station.retry_ticks = opt.retry_units * U;
  station.station.max_retries = opt.max_retries;

  std::string err;
  const int rc = live::run_station_udp(station, &err);
  if (rc != 0)
    std::cerr << "asyncmac_cli live-station " << *opt.id << ": "
              << (err.empty() ? std::string("failed") : err) << "\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  switch (opt.mode) {
    case kRun: return run_single(opt);
    case kGrid: return run_experiment_grid(opt);
    case kMsr: return run_msr(opt);
    case kResume: return run_resume(opt);
    case kFuzz:
    case kFuzzRepro:
    case kFuzzCase:
    case kFuzzEmit: return run_fuzz(opt);
    case kStats: return run_stats(opt);
    case kServe:
    case kServeFuzz: return run_serve(opt);
    case kWorker: return run_worker(opt);
    case kLiveUdp:
    case kLiveVirtual: return run_live_serve(opt);
    case kLiveStation: return run_live_station(opt);
  }
  return 2;
}
