// tools/asyncmac_cli — command-line simulator driver.
//
// Run any protocol of the library against any workload/slot adversary
// without writing code:
//
//   asyncmac_cli --protocol=ca-arrow --n=4 --r=2 --rho=0.7
//                --burst=16 --policy=perstation --horizon=100000
//   (one command line; wrapped here for width)
//
// `asyncmac_cli --help` prints the full flag reference (print_help below
// is the single source of truth; the help smoke tests in
// tools/CMakeLists.txt pin its coverage). Modes:
//
//   (default)           one simulation run, stats as text or --json
//   --grid              experiment grid over comma-list dimensions
//   --msr               Max Stable Rate estimate
//   resume <ckpt>       continue a run from a checkpoint file
//   fuzz [...]          property-fuzzing campaign (src/verify/)
//   stats <jsonl>       summarize a telemetry JSONL stream
//   serve [...]         distributed-sweep coordinator (src/sweep/)
//   worker --port=P     distributed-sweep worker
//
// Checkpointing (docs/CHECKPOINT.md): a single run with
// --checkpoint-every=K --checkpoint-dir=D autosaves rotating snapshots
// every K slot events; `resume` rebuilds the engine from the embedded
// RunSpec and continues bit-for-bit. Grid mode takes --checkpoint-dir
// alone and keeps a per-cell manifest so an interrupted sweep restarts at
// the first incomplete cell.
//
// Exit code 0 on success; 1 on fuzz violations / failed replay / bad
// checkpoint; 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/msr.h"
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

struct Options {
  // Run flags (parse_run_flag), shared by single runs, --grid, --msr,
  // serve and live-serve. The dimensions stay text until a mode reads
  // them: comma lists for --grid and serve (make_grid_spec), one value
  // elsewhere (check_scalar_dims).
  std::string protocol = "ao-arrow";
  std::string n_list = "4";
  std::string r_list = "2";
  std::string rho_list = "0.5";
  std::string policy = "perstation";
  std::optional<std::string> pattern;  ///< unset = roundrobin
  Tick burst_units = 16;
  Tick horizon_units = 100000;
  std::uint64_t seed = 1;
  channel::RestrainedSpec restrained;
  energy::EnergyModel energy;
  std::string telemetry_path;
  // The scalar dimensions, set by check_scalar_dims.
  std::uint32_t n = 4;
  std::uint32_t r = 2;
  double rho = 0.5;
  // Mode flags.
  bool json = false;
  Tick trace_units = 0;
  bool msr = false;
  bool grid = false;
  int seeds = 1;
  unsigned jobs = 0;
  std::string csv_path;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;
};

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

// The complete flag reference, covering every mode and subcommand. The
// help smoke tests (tools/CMakeLists.txt) pin that run/grid/msr/fuzz/
// stats/resume and the checkpoint/telemetry flags all appear here — keep
// it in sync when adding flags.
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
      "run flags (single run, --msr, --grid, serve and live-serve):\n"
      "  --protocol=P   ao-arrow | ca-arrow | adaptive-abs | abs | rrw |\n"
      "                 mbtf | aloha | beb | csma-lbt | silence-tdma |\n"
      "                 sync-binary-le | listen | tree-resolution\n"
      "                 (default ao-arrow)\n"
      "  --n=N          stations (default 4)\n"
      "  --r=R          asynchrony bound R >= 1 (default 2)\n"
      "  --rho=F        injection rate in [0, 1] (default 0.5)\n"
      "  --burst=B      burstiness in time units (default 16)\n"
      "  --policy=S     sync | max | perstation | cyclic | random |\n"
      "                 stretch-tx (default perstation)\n"
      "  --horizon=T    simulated time units (default 100000)\n"
      "  --seed=S       master seed (default 1)\n"
      "  --telemetry=P  stream run telemetry as JSONL to P (never changes\n"
      "                 simulation results; see docs/OBSERVABILITY.md)\n"
      "  --restrained-k=K[:jam|reject]  k-restrained channel: at most K\n"
      "                 concurrent transmissions; over-capacity ones jam\n"
      "                 (sent anyway, guaranteed collision; default) or\n"
      "                 are rejected (suppressed). 0 = unrestrained\n"
      "  --energy-model=TX:LISTEN:SLEEP  per-slot energy accounting with\n"
      "                 the three integer costs (transmit / listen with a\n"
      "                 non-empty queue / idle-sleep); observation-only,\n"
      "                 never changes simulation results (docs/ENERGY.md)\n"
      "\n"
      "single-run flags (single run, --msr and live-serve; not --grid or\n"
      "serve, whose cells always inject round-robin saturating traffic):\n"
      "  --pattern=S    roundrobin | single | random | maxqueue (default\n"
      "                 roundrobin)\n"
      "  --json         print stats as JSON instead of text\n"
      "  --trace=T      also render the first T time units of the schedule\n"
      "\n"
      "checkpoint flags (single run and --grid; serve takes --checkpoint-dir):\n"
      "  --checkpoint-every=K  single run: autosave a snapshot every K\n"
      "                 slot events (requires --checkpoint-dir)\n"
      "  --checkpoint-dir=D    single run: rotating snapshot directory;\n"
      "                 grid: per-cell manifest directory for resumable\n"
      "                 sweeps (see docs/CHECKPOINT.md)\n"
      "\n"
      "grid flags (--grid; --protocol/--n/--r/--rho/--policy take comma\n"
      "lists and the cross product x --seeds replications runs on --jobs\n"
      "workers, see analysis/experiment.h):\n"
      "  --seeds=K      seed replications per cell (default 1); the\n"
      "                 replicas of a cell that draws from no seed (not\n"
      "                 aloha/beb/csma-lbt, not policy random) are\n"
      "                 computed once\n"
      "  --jobs=J       worker threads, 0 = all cores (default 0);\n"
      "                 records are byte-identical for every J\n"
      "  --csv=PATH     also write the records as CSV\n"
      "\n"
      "resume flags (after: asyncmac_cli resume path/to/ckpt.snap or the\n"
      "autosave directory):\n"
      "  --horizon=T    run to T time units instead of the checkpoint's\n"
      "                 recorded horizon\n"
      "  --json / --trace=T / --telemetry=P   as in run mode\n"
      "  --checkpoint-dir=D    keep autosaving into D (cadence comes from\n"
      "                 the checkpoint's own --checkpoint-every)\n"
      "  exit 1 with a typed error (io/truncated/bad-magic/bad-version/\n"
      "  bad-crc/corrupt/mismatch) when the file cannot be resumed\n"
      "\n"
      "fuzz flags (two-token `--flag value` form also accepted):\n"
      "  --seed=S         campaign seed; case K's seed derives from it\n"
      "  --cases=K        generated cases (default 1000)\n"
      "  --jobs=J         worker threads, 0 = all cores (default 0)\n"
      "  --time-budget=T  wall-clock cap in seconds, 0 = unlimited\n"
      "  --protocol=LIST  restrict the generated protocol pool\n"
      "  --no-shrink      skip counterexample minimization\n"
      "  --repro-out=P    failure repro path (default\n"
      "                   asyncmac_fuzz_repro.json)\n"
      "  --repro=FILE     replay a repro file instead of a campaign\n"
      "  --case-seed=X    run the one scenario case seed X derives\n"
      "  --emit-case=I    pin campaign case I as a clean repro\n"
      "  --telemetry=P    stream campaign telemetry as JSONL to P\n"
      "  --checkpoint=P   write a resumable chunk cursor to P; a rerun\n"
      "                   with the same campaign resumes after the last\n"
      "                   completed chunk (docs/CHECKPOINT.md)\n"
      "\n"
      "stats flags:\n"
      "  --top=N        show the top N counters (default 20)\n"
      "\n"
      "serve flags (coordinator; sweep dimensions as in --grid, see\n"
      "docs/DISTRIBUTED.md — stdout and --csv are byte-identical to the\n"
      "same sweep run locally with --grid):\n"
      "  --port=P             listen port; 0 = ephemeral (default 0)\n"
      "  --port-file=PATH     write the bound port to PATH (scripts/CI)\n"
      "  --lease-timeout-ms=T reassign a leased unit after T ms without\n"
      "                       worker liveness (default 10000)\n"
      "  --heartbeat-ms=T     heartbeat cadence asked of workers\n"
      "                       (default 1000)\n"
      "  --seeds=K / --csv=PATH / --checkpoint-dir=D / --telemetry=P\n"
      "                       as in --grid mode\n"
      "  --fuzz --cases=K     distribute a fuzz campaign (chunked cases)\n"
      "                       instead of a grid; --seed seeds it; it\n"
      "                       takes no grid flag (--protocol, --n,\n"
      "                       --seeds, --csv, --checkpoint-dir, ...), and\n"
      "                       a grid serve takes no --cases\n"
      "\n"
      "worker flags (joins a coordinator, computes leased units until the\n"
      "sweep completes; safe to kill — its leases are reassigned):\n"
      "  --host=H       coordinator host (default 127.0.0.1)\n"
      "  --port=P       coordinator port (required)\n"
      "  --name=S       worker name for coordinator-side logs\n"
      "\n"
      "live-serve flags (run flags above select the scenario; docs/LIVE.md;\n"
      "stations connect over loopback UDP unless --virtual; the stability\n"
      "verdict goes to stderr, stdout matches run mode byte-for-byte):\n"
      "  --virtual            daemon + stations in-process on a virtual\n"
      "                       clock (deterministic differential mode)\n"
      "  --port=P             UDP listen port; 0 = ephemeral (default 0)\n"
      "  --port-file=PATH     write the bound port to PATH (scripts/CI)\n"
      "  --unit-us=N          wall microseconds per time unit (default\n"
      "                       1000); stations must use the same value\n"
      "  --idle-timeout-ms=T  exit 1 after T ms without a datagram\n"
      "                       (default 30000)\n"
      "  --emu-loss=F         per-datagram drop probability in [0, 1)\n"
      "  --emu-delay-us=N     fixed one-way latency (microseconds)\n"
      "  --emu-jitter-us=N    extra uniform latency in [0, N] us\n"
      "  --emu-seed=S         emulation rng seed (default 1)\n"
      "\n"
      "live-station flags (one protocol automaton joining a live-serve\n"
      "daemon; exits 0 when the daemon fins the run cleanly):\n"
      "  --host=H         daemon host (default 127.0.0.1)\n"
      "  --port=P         daemon UDP port (required)\n"
      "  --id=I           station id in 1..n (required)\n"
      "  --name=S         station name (default station-I)\n"
      "  --unit-us=N      must match the daemon's (default 1000)\n"
      "  --retry-units=T  reply timeout before a retransmit (default 64)\n"
      "  --max-retries=K  unanswered retransmits before giving up\n"
      "                   (default 25)\n"
      "\n"
      "exit codes: 0 success; 1 fuzz violations, failed replay or bad\n"
      "checkpoint; 2 bad usage\n";
  std::exit(0);
}

// Turn telemetry on (all instruments + JSONL streaming to `path`).
// Exits with usage() if the file cannot be opened.
void enable_telemetry_or_die(const std::string& path) {
  if (!telemetry::enable_to_file(path)) usage("cannot write " + path);
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

/// The run flags single runs, --grid, --msr, serve and live-serve share,
/// so every mode spells a run the same way. Returns false when `arg` is
/// not one of them.
bool parse_run_flag(const std::string& arg, Options& opt) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) return false;
  const std::string flag = arg.substr(0, eq);
  const std::string v = arg.substr(eq + 1);
  if (flag == "--protocol")
    opt.protocol = v;
  else if (flag == "--n")
    opt.n_list = v;
  else if (flag == "--r")
    opt.r_list = v;
  else if (flag == "--rho")
    opt.rho_list = v;
  else if (flag == "--burst")
    opt.burst_units = arg_units(v, "--burst");
  else if (flag == "--policy")
    opt.policy = v;
  else if (flag == "--pattern")
    opt.pattern = v;
  else if (flag == "--horizon")
    opt.horizon_units = arg_units(v, "--horizon");
  else if (flag == "--seed")
    opt.seed = arg_u64(v, "--seed");
  else if (flag == "--telemetry")
    opt.telemetry_path = v;
  else if (flag == "--restrained-k")
    opt.restrained = parse_restrained_arg(v);
  else if (flag == "--energy-model")
    opt.energy = parse_energy_arg(v);
  else
    return false;
  return true;
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

/// Grids (--grid and serve) always inject round-robin saturating traffic.
void reject_grid_pattern(const Options& opt) {
  if (opt.pattern)
    usage("--pattern does not apply to grids: every grid cell injects "
          "round-robin saturating traffic");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (parse_run_flag(arg, opt)) continue;
    if (arg == "--json")
      opt.json = true;
    else if (arg.rfind("--trace=", 0) == 0)
      opt.trace_units = arg_units(value("--trace="), "--trace");
    else if (arg == "--msr")
      opt.msr = true;
    else if (arg == "--grid")
      opt.grid = true;
    else if (arg.rfind("--seeds=", 0) == 0)
      opt.seeds = static_cast<int>(
          arg_u32(value("--seeds="), "--seeds", INT32_MAX));
    else if (arg.rfind("--jobs=", 0) == 0)
      opt.jobs = arg_u32(value("--jobs="), "--jobs");
    else if (arg.rfind("--csv=", 0) == 0)
      opt.csv_path = value("--csv=");
    else if (arg.rfind("--checkpoint-every=", 0) == 0)
      opt.checkpoint_every =
          arg_u64(value("--checkpoint-every="), "--checkpoint-every");
    else if (arg.rfind("--checkpoint-dir=", 0) == 0)
      opt.checkpoint_dir = value("--checkpoint-dir=");
    else if (arg == "--help" || arg == "-h")
      print_help();
    else
      usage("unknown argument: " + arg);
  }
  if (opt.seeds < 1) usage("--seeds must be >= 1");
  if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty())
    usage("--checkpoint-every needs --checkpoint-dir");
  if (opt.checkpoint_every > 0 && (opt.grid || opt.msr))
    usage("--checkpoint-every applies to single runs only (grid mode "
          "checkpoints per cell via --checkpoint-dir)");
  if (!opt.checkpoint_dir.empty() && opt.msr)
    usage("--checkpoint-dir is not supported in --msr mode");
  if (!opt.checkpoint_dir.empty() && !opt.grid && opt.checkpoint_every == 0)
    usage("single-run --checkpoint-dir needs --checkpoint-every");
  if (opt.grid)
    reject_grid_pattern(opt);
  else
    check_scalar_dims(opt);
  return opt;
}

/// Grid dimensions from the parsed comma-lists — shared by --grid and
/// `serve` so a distributed sweep runs exactly the spec a local one
/// would (stdout parity depends on it).
analysis::ExperimentSpec make_grid_spec(const Options& opt) {
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
  spec.horizon_units = opt.horizon_units;
  spec.seed = opt.seed;
  spec.seeds = opt.seeds;
  spec.jobs = opt.jobs;
  spec.restrained = opt.restrained;
  spec.energy = opt.energy;
  spec.checkpoint_dir = opt.checkpoint_dir;
  return spec;
}

/// Table + optional CSV, shared by --grid and `serve`: the distributed
/// path must produce byte-identical stdout and CSV (the sweep-smoke CI
/// job diffs both against a single-process control).
int print_grid_results(const std::vector<analysis::ExperimentRecord>& records,
                       const std::string& csv_path, bool energy_columns) {
  std::cout << analysis::to_table(records);
  if (!csv_path.empty()) {
    analysis::write_csv(records, csv_path, energy_columns);
    std::cout << "(" << records.size() << " records written to "
              << csv_path << ")\n";
  }
  return 0;
}

int run_experiment_grid(const Options& opt) {
  const analysis::ExperimentSpec spec = make_grid_spec(opt);
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
  return print_grid_results(records, opt.csv_path, spec.energy.enabled);
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
  spec.horizon_units = opt.horizon_units;
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

int run_msr(const Options& opt, const analysis::RunSpec& spec) {
  try {
    (void)analysis::materials(spec);  // unknown names are usage errors
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  analysis::MsrConfig cfg;
  cfg.probe.horizon = opt.horizon_units * U;
  cfg.base_seed = opt.seed;
  const auto res = analysis::estimate_msr(analysis::rate_factory(spec), cfg);
  std::cout << "protocol=" << opt.protocol << " n=" << opt.n
            << " R=" << opt.r << " policy=" << opt.policy
            << "  measured MSR = " << res.msr_pct << "% (" << res.probes
            << " probes)\n";
  return 0;
}

// ------------------------------------------------------------------- fuzz

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t cases = 1000;
  unsigned jobs = 0;
  int time_budget = 0;
  bool shrink = true;
  std::vector<std::string> protocols;
  std::string repro_out = "asyncmac_fuzz_repro.json";
  std::string repro_in;       // replay mode
  std::uint64_t case_seed = 0;   // single-case mode (0 = off)
  bool has_emit_case = false;
  std::uint64_t emit_case = 0;   // corpus-pinning mode
  std::string telemetry_path;
  std::string checkpoint_path;   // campaign cursor file
};

FuzzOptions parse_fuzz_args(int argc, char** argv) {
  FuzzOptions opt;
  // Accept both --flag=value and the two-token --flag value form.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.push_back(arg);
      args.push_back(argv[++i]);
    } else {
      args.push_back(arg);
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage(flag + " needs a value");
      return args[++i];
    };
    if (flag == "--seed")
      opt.seed = arg_u64(value(), "--seed");
    else if (flag == "--cases")
      opt.cases = arg_u64(value(), "--cases");
    else if (flag == "--jobs")
      opt.jobs = arg_u32(value(), "--jobs");
    else if (flag == "--time-budget")
      opt.time_budget = static_cast<int>(
          arg_u32(value(), "--time-budget", INT32_MAX));
    else if (flag == "--protocol")
      opt.protocols = split_list(value());
    else if (flag == "--no-shrink")
      opt.shrink = false;
    else if (flag == "--repro-out")
      opt.repro_out = value();
    else if (flag == "--repro")
      opt.repro_in = value();
    else if (flag == "--case-seed")
      opt.case_seed = arg_u64(value(), "--case-seed");
    else if (flag == "--telemetry")
      opt.telemetry_path = value();
    else if (flag == "--checkpoint")
      opt.checkpoint_path = value();
    else if (flag == "--help" || flag == "-h")
      print_help();
    else if (flag == "--emit-case") {
      opt.has_emit_case = true;
      opt.emit_case = arg_u64(value(), "--emit-case");
    } else
      usage("unknown fuzz argument: " + flag);
  }
  if (opt.cases < 1) usage("--cases must be >= 1");
  if (opt.time_budget < 0) usage("--time-budget must be >= 0");
  return opt;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  out << text;
}

int replay_repro_file(const FuzzOptions& opt) {
  verify::Repro repro;
  try {
    repro = verify::parse_repro_json(read_text_file(opt.repro_in));
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

int run_single_case(std::uint64_t case_seed,
                    const std::vector<std::string>& pool) {
  const verify::Scenario s =
      pool.empty() ? verify::scenario_from_seed(case_seed)
                   : verify::scenario_from_seed(case_seed, pool);
  std::cout << "case: " << s.describe() << "\n";
  const auto r = verify::run_case(s);
  if (r.ok) {
    std::cout << "clean\n";
    return 0;
  }
  std::cout << "VIOLATION: " << r.what << "\n";
  return 1;
}

int emit_corpus_case(const FuzzOptions& opt) {
  const verify::ScenarioGen gen(opt.seed, opt.protocols);
  const verify::Scenario s = gen.generate(opt.emit_case);
  const auto r = verify::run_case(s);
  if (!r.ok) {
    std::cerr << "refusing to pin a violating case: " << r.what << "\n";
    return 1;
  }
  write_text_file(opt.repro_out, verify::to_json(verify::make_repro(s, "")));
  std::cout << "pinned case " << opt.emit_case << " (seed " << s.case_seed
            << ") to " << opt.repro_out << "\n  " << s.describe() << "\n";
  return 0;
}

int run_fuzz(int argc, char** argv) {
  const FuzzOptions opt = parse_fuzz_args(argc, argv);
  if (!opt.telemetry_path.empty())
    enable_telemetry_or_die(opt.telemetry_path);
  if (!opt.repro_in.empty()) return replay_repro_file(opt);
  if (opt.case_seed != 0) return run_single_case(opt.case_seed, opt.protocols);
  if (opt.has_emit_case) return emit_corpus_case(opt);

  verify::CampaignConfig cfg;
  cfg.seed = opt.seed;
  cfg.cases = opt.cases;
  cfg.jobs = opt.jobs;
  cfg.time_budget_seconds = opt.time_budget;
  cfg.shrink = opt.shrink;
  cfg.protocols = opt.protocols;
  cfg.checkpoint_path = opt.checkpoint_path;

  std::cout << "fuzz: seed=" << opt.seed << " cases=" << opt.cases
            << " jobs=" << opt.jobs << "\n";
  verify::CampaignResult result;
  try {
    result = verify::run_campaign(cfg);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli fuzz: " << opt.checkpoint_path << ": "
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
  write_text_file(opt.repro_out,
                  verify::to_json(verify::make_repro(worst, violation)));
  std::cout << "repro written to " << opt.repro_out
            << " (replay: asyncmac_cli fuzz --repro " << opt.repro_out
            << ")\n";
  return 1;
}

// ------------------------------------------------------------------ stats

int run_stats(int argc, char** argv) {
  std::string path;
  std::size_t top = 20;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--top=", 0) == 0)
      top = arg_u64(arg.substr(6), "--top");
    else if (arg.rfind("--", 0) == 0)
      usage("unknown stats argument: " + arg);
    else if (path.empty())
      path = arg;
    else
      usage("stats takes one telemetry file");
  }
  if (path.empty()) usage("stats needs a telemetry JSONL file");
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  try {
    const auto summary = telemetry::summarize_stream(in);
    std::cout << telemetry::render_summary(summary, top);
  } catch (const std::invalid_argument& e) {
    std::cerr << "asyncmac_cli stats: " << path << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------- resume

int run_resume(int argc, char** argv) {
  std::string path;
  Tick horizon_units = -1;  // -1 = use the checkpoint's recorded horizon
  bool json = false;
  Tick trace_units = 0;
  std::string telemetry_path;
  std::string checkpoint_dir;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--horizon=", 0) == 0)
      horizon_units = arg_units(arg.substr(10), "--horizon");
    else if (arg == "--json")
      json = true;
    else if (arg.rfind("--trace=", 0) == 0)
      trace_units = arg_units(arg.substr(8), "--trace");
    else if (arg.rfind("--telemetry=", 0) == 0)
      telemetry_path = arg.substr(12);
    else if (arg.rfind("--checkpoint-dir=", 0) == 0)
      checkpoint_dir = arg.substr(17);
    else if (arg == "--help" || arg == "-h")
      print_help();
    else if (arg.rfind("--", 0) == 0)
      usage("unknown resume argument: " + arg);
    else if (path.empty())
      path = arg;
    else
      usage("resume takes one checkpoint file");
  }
  if (path.empty()) usage("resume needs a checkpoint file or directory");
  if (!telemetry_path.empty()) enable_telemetry_or_die(telemetry_path);

  // A directory means "the newest autosave in it" (the highest AutoSaver
  // counter, snapshot::newest_checkpoint).
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
  if (horizon_units >= 0) spec.horizon_units = horizon_units;

  // Keep autosaving when asked to (the cadence is baked into the
  // checkpoint; a spec without one cannot re-arm from here).
  std::shared_ptr<snapshot::AutoSaver> saver;
  if (!checkpoint_dir.empty()) {
    if (spec.checkpoint_interval == 0)
      usage("this checkpoint was written without --checkpoint-every; "
            "--checkpoint-dir cannot re-arm autosaving");
    saver = std::make_shared<snapshot::AutoSaver>(checkpoint_dir, spec);
    run.engine->set_checkpoint_sink(
        [saver](const sim::Engine& e) { (*saver)(e); });
  }

  std::cerr << "resumed " << spec.protocol << " n=" << spec.n
            << " from " << path << " at t=" << to_units(run.engine->now())
            << " units\n";
  try {
    run.engine->run(sim::until(spec.horizon_units * U));
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
             run.engine->trace().slots(), json, trace_units,
             &run.engine->energy_meter());
  return 0;
}

// ------------------------------------------------------- serve / worker

struct ServeOptions {
  Options grid;  ///< sweep dimensions (comma lists) + --csv/--checkpoint-dir
  bool fuzz = false;
  std::uint64_t cases = 1000;
  std::uint16_t port = 0;  ///< 0 = ephemeral
  std::string port_file;
  std::uint64_t lease_timeout_ms = 10000;
  std::uint64_t heartbeat_ms = 1000;
};

ServeOptions parse_serve_args(int argc, char** argv) {
  ServeOptions opt;
  // The flags a distributed fuzz campaign reads. Every other flag is a
  // grid's, and --cases is the campaign's only: a flag the chosen mode
  // would ignore is a usage error, not a silent no-op.
  static const std::vector<std::string> kFuzzFlags = {
      "--fuzz", "--seed", "--cases", "--telemetry", "--port",
      "--port-file", "--lease-timeout-ms", "--heartbeat-ms"};
  std::string grid_flag;  // the first flag only a grid reads
  bool cases_set = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    const std::string flag = arg.substr(0, arg.find('='));
    if (grid_flag.empty() &&
        std::find(kFuzzFlags.begin(), kFuzzFlags.end(), flag) ==
            kFuzzFlags.end())
      grid_flag = flag;
    cases_set = cases_set || flag == "--cases";
    if (parse_run_flag(arg, opt.grid)) continue;
    if (arg.rfind("--seeds=", 0) == 0)
      opt.grid.seeds = static_cast<int>(
          arg_u32(value("--seeds="), "--seeds", INT32_MAX));
    else if (arg.rfind("--csv=", 0) == 0)
      opt.grid.csv_path = value("--csv=");
    else if (arg.rfind("--checkpoint-dir=", 0) == 0)
      opt.grid.checkpoint_dir = value("--checkpoint-dir=");
    else if (arg == "--fuzz")
      opt.fuzz = true;
    else if (arg.rfind("--cases=", 0) == 0)
      opt.cases = arg_u64(value("--cases="), "--cases");
    else if (arg.rfind("--port=", 0) == 0)
      opt.port = static_cast<std::uint16_t>(
          arg_u32(value("--port="), "--port", 65535));
    else if (arg.rfind("--port-file=", 0) == 0)
      opt.port_file = value("--port-file=");
    else if (arg.rfind("--lease-timeout-ms=", 0) == 0)
      opt.lease_timeout_ms =
          arg_u64(value("--lease-timeout-ms="), "--lease-timeout-ms");
    else if (arg.rfind("--heartbeat-ms=", 0) == 0)
      opt.heartbeat_ms = arg_u64(value("--heartbeat-ms="), "--heartbeat-ms");
    else if (arg == "--help" || arg == "-h")
      print_help();
    else
      usage("unknown serve argument: " + arg);
  }
  if (opt.grid.seeds < 1) usage("--seeds must be >= 1");
  if (opt.lease_timeout_ms == 0) usage("--lease-timeout-ms must be > 0");
  if (opt.cases < 1) usage("--cases must be >= 1");
  if (opt.fuzz && !grid_flag.empty())
    usage(grid_flag + " does not apply to serve --fuzz: a distributed fuzz "
          "campaign takes --seed, --cases and --telemetry");
  if (!opt.fuzz && cases_set)
    usage("--cases applies to serve --fuzz only");
  reject_grid_pattern(opt.grid);
  return opt;
}

int run_serve(int argc, char** argv) {
  const ServeOptions opt = parse_serve_args(argc, argv);
  if (!opt.grid.telemetry_path.empty())
    enable_telemetry_or_die(opt.grid.telemetry_path);

  sweep::ServeOptions srv;
  srv.port = opt.port;
  srv.coord.lease_timeout_ms = opt.lease_timeout_ms;
  srv.coord.heartbeat_ms = opt.heartbeat_ms;
  if (opt.fuzz) {
    srv.coord.job.kind = sweep::JobKind::kFuzz;
    srv.coord.job.fuzz.seed = opt.grid.seed;
    srv.coord.job.fuzz.cases = opt.cases;
  } else {
    srv.coord.job.kind = sweep::JobKind::kGrid;
    srv.coord.job.grid = make_grid_spec(opt.grid);
    srv.coord.checkpoint_dir = opt.grid.checkpoint_dir;
  }
  // Progress and the bound port go to stderr: stdout stays byte-identical
  // to the same sweep run locally with --grid.
  srv.on_listening = [&](std::uint16_t port) {
    std::cerr << "serve: listening on port " << port << "\n";
    if (!opt.port_file.empty()) {
      std::ofstream out(opt.port_file);
      out << port << "\n";
    }
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

  if (opt.fuzz) {
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
  return print_grid_results(outcome.records, opt.grid.csv_path,
                            opt.grid.energy.enabled);
}

int run_worker(int argc, char** argv) {
  sweep::WorkerOptions opt;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0)
      opt.host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0)
      opt.port = static_cast<std::uint16_t>(
          arg_u32(arg.substr(7), "--port", 65535));
    else if (arg.rfind("--name=", 0) == 0)
      opt.name = arg.substr(7);
    else if (arg == "--help" || arg == "-h")
      print_help();
    else
      usage("unknown worker argument: " + arg);
  }
  if (opt.port == 0) usage("worker needs --port");
  try {
    return sweep::run_worker(opt);
  } catch (const std::runtime_error& e) {
    std::cerr << "asyncmac_cli worker: " << e.what() << "\n";
    return 1;
  }
}

// ------------------------------------------------ live-serve / live-station

struct LiveServeOptions {
  Options run;  ///< scenario dimensions (scalar) + --json/--trace/--telemetry
  bool virtual_mode = false;
  std::uint16_t port = 0;  ///< 0 = ephemeral
  std::string port_file;
  std::uint64_t unit_us = 1000;
  std::uint64_t idle_timeout_ms = 30000;
  double emu_loss = 0.0;
  std::uint64_t emu_delay_us = 0;
  std::uint64_t emu_jitter_us = 0;
  std::uint64_t emu_seed = 1;
};

LiveServeOptions parse_live_serve_args(int argc, char** argv) {
  LiveServeOptions opt;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (parse_run_flag(arg, opt.run)) continue;
    if (arg == "--json")
      opt.run.json = true;
    else if (arg.rfind("--trace=", 0) == 0)
      opt.run.trace_units = arg_units(value("--trace="), "--trace");
    else if (arg == "--virtual")
      opt.virtual_mode = true;
    else if (arg.rfind("--port=", 0) == 0)
      opt.port = static_cast<std::uint16_t>(
          arg_u32(value("--port="), "--port", 65535));
    else if (arg.rfind("--port-file=", 0) == 0)
      opt.port_file = value("--port-file=");
    else if (arg.rfind("--unit-us=", 0) == 0)
      opt.unit_us = arg_u64(value("--unit-us="), "--unit-us");
    else if (arg.rfind("--idle-timeout-ms=", 0) == 0)
      opt.idle_timeout_ms =
          arg_u64(value("--idle-timeout-ms="), "--idle-timeout-ms");
    else if (arg.rfind("--emu-loss=", 0) == 0)
      opt.emu_loss = arg_finite(value("--emu-loss="), "--emu-loss");
    else if (arg.rfind("--emu-delay-us=", 0) == 0)
      opt.emu_delay_us = arg_u64(value("--emu-delay-us="), "--emu-delay-us");
    else if (arg.rfind("--emu-jitter-us=", 0) == 0)
      opt.emu_jitter_us = arg_u64(value("--emu-jitter-us="), "--emu-jitter-us");
    else if (arg.rfind("--emu-seed=", 0) == 0)
      opt.emu_seed = arg_u64(value("--emu-seed="), "--emu-seed");
    else if (arg == "--help" || arg == "-h")
      print_help();
    else
      usage("unknown live-serve argument: " + arg);
  }
  // A live daemon emulates exactly one run.
  check_scalar_dims(opt.run);
  if (opt.emu_loss < 0 || opt.emu_loss >= 1)
    usage("--emu-loss must lie in [0, 1)");
  if (opt.unit_us < 1) usage("--unit-us must be >= 1");
  if (opt.idle_timeout_ms < 1) usage("--idle-timeout-ms must be > 0");
  return opt;
}

/// Wall microseconds -> virtual-clock ticks under --unit-us.
Tick emu_us_to_ticks(std::uint64_t us, std::uint64_t unit_us) {
  return static_cast<Tick>(us) * U / static_cast<Tick>(unit_us);
}

int run_live_serve(int argc, char** argv) {
  const LiveServeOptions opt = parse_live_serve_args(argc, argv);
  if (!opt.run.telemetry_path.empty())
    enable_telemetry_or_die(opt.run.telemetry_path);

  live::DaemonConfig dc;
  dc.spec = make_run_spec(opt.run);

  if (opt.virtual_mode) {
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
    report_run(dc.spec, opt.run.rho, rep.stats, rep.channel, rep.trace,
               opt.run.json, opt.run.trace_units, &rep.energy);
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
  report_run(dc.spec, opt.run.rho, daemon->stats(),
             daemon->live_channel_stats(), daemon->trace().slots(),
             opt.run.json, opt.run.trace_units, &daemon->energy_meter());
  std::cerr << "live: verdict=" << analysis::to_string(daemon->verdict())
            << " (" << daemon->backlog_samples().size() << " samples)\n";
  return 0;
}

int run_live_station(int argc, char** argv) {
  live::UdpStationOptions opt;
  bool have_id = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--host=", 0) == 0)
      opt.host = value("--host=");
    else if (arg.rfind("--port=", 0) == 0)
      opt.port = static_cast<std::uint16_t>(
          arg_u32(value("--port="), "--port", 65535));
    else if (arg.rfind("--id=", 0) == 0) {
      opt.station.id = arg_u32(value("--id="), "--id");
      have_id = true;
    } else if (arg.rfind("--name=", 0) == 0)
      opt.station.name = value("--name=");
    else if (arg.rfind("--unit-us=", 0) == 0)
      opt.unit_us = arg_u64(value("--unit-us="), "--unit-us");
    else if (arg.rfind("--retry-units=", 0) == 0)
      opt.station.retry_ticks =
          arg_units(value("--retry-units="), "--retry-units") * U;
    else if (arg.rfind("--max-retries=", 0) == 0)
      opt.station.max_retries = static_cast<int>(
          arg_u32(value("--max-retries="), "--max-retries", INT32_MAX));
    else if (arg == "--help" || arg == "-h")
      print_help();
    else
      usage("unknown live-station argument: " + arg);
  }
  if (opt.port == 0) usage("live-station needs --port");
  if (!have_id || opt.station.id < 1) usage("live-station needs --id >= 1");
  if (opt.station.retry_ticks < 1) usage("--retry-units must be >= 1");
  if (opt.station.max_retries < 1) usage("--max-retries must be >= 1");
  if (opt.unit_us < 1) usage("--unit-us must be >= 1");
  if (opt.station.name == "station")
    opt.station.name = "station-" + std::to_string(opt.station.id);

  std::string err;
  const int rc = live::run_station_udp(opt, &err);
  if (rc != 0)
    std::cerr << "asyncmac_cli live-station " << opt.station.id << ": "
              << (err.empty() ? std::string("failed") : err) << "\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "serve")
    return run_serve(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "worker")
    return run_worker(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "fuzz")
    return run_fuzz(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "stats")
    return run_stats(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "resume")
    return run_resume(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "live-serve")
    return run_live_serve(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "live-station")
    return run_live_station(argc - 2, argv + 2);
  if (argc > 1 && std::string(argv[1]) == "help") print_help();
  const Options opt = parse_args(argc, argv);
  if (!opt.telemetry_path.empty())
    enable_telemetry_or_die(opt.telemetry_path);
  if (opt.grid) return run_experiment_grid(opt);
  const analysis::RunSpec spec = make_run_spec(opt);
  if (opt.msr) return run_msr(opt, spec);

  std::unique_ptr<sim::Engine> engine;
  try {
    engine = analysis::build_engine(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::shared_ptr<snapshot::AutoSaver> saver;
  if (opt.checkpoint_every > 0) {
    saver = std::make_shared<snapshot::AutoSaver>(opt.checkpoint_dir, spec);
    engine->set_checkpoint_sink(
        [saver](const sim::Engine& e) { (*saver)(e); });
  }
  try {
    engine->run(sim::until(opt.horizon_units * U));
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
