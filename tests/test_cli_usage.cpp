// Bad-usage argv matrix for asyncmac_cli: every subcommand, fed
// malformed / overflowing / empty / non-finite numeric values, must exit
// with the usage status (2) and a usage message — never std::terminate
// on an uncaught std::sto* exception, and never silently accept trailing
// garbage ("--n=8x") or wrap on u32 overflow ("--r=4294967297"). The
// flag x mode matrix holds every mode to its contract: it refuses each
// flag it does not read, with no side effect, and accepts every flag it
// does read. An output path that cannot be written exits 1.
//
// The tests spawn the real binary (path injected via ASYNCMAC_CLI_BIN)
// because ctest's WILL_FAIL cannot distinguish a clean exit 2 from an
// abort: WIFEXITED must hold AND the status must be exactly 2. The same
// spawner drives `resume <dir>` end to end, whose newest-checkpoint rule
// only the CLI applies to a directory.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/run_spec.h"
#include "snapshot/checkpoint.h"
#include "snapshot/format.h"

namespace {

struct RunResult {
  bool exited = false;  ///< terminated via exit(), not a signal
  int status = -1;      ///< WEXITSTATUS when exited
  std::string output;   ///< combined stdout+stderr
};

/// Runs the CLI; stderr is folded into the output (so the usage message
/// is observable) unless `stdout_only`. `wrapper` prefixes the command
/// (e.g. `timeout 30`).
RunResult run_cli(const std::string& args, bool stdout_only = false,
                  const std::string& wrapper = "") {
  const std::string cmd = wrapper + std::string(ASYNCMAC_CLI_BIN) + " " +
                          args + (stdout_only ? " 2>/dev/null" : " 2>&1");
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return r;
  }
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int wait_status = pclose(pipe);
  if (wait_status >= 0 && WIFEXITED(wait_status)) {
    r.exited = true;
    r.status = WEXITSTATUS(wait_status);
  }
  return r;
}

void expect_usage_exit(const std::string& args) {
  SCOPED_TRACE(args);
  const RunResult r = run_cli(args);
  EXPECT_TRUE(r.exited) << "killed by a signal (std::terminate?): "
                        << r.output;
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_NE(r.output.find("asyncmac_cli:"), std::string::npos) << r.output;
}

// ------------------------------------------------------------- run mode

TEST(CliUsage, RunModeRejectsMalformedNumerics) {
  expect_usage_exit("--n=abc");
  expect_usage_exit("--n=8x");          // trailing garbage
  expect_usage_exit("--n=");            // empty value
  expect_usage_exit("--r=4294967297");  // u32 overflow must not wrap to 1
  expect_usage_exit("--seed=abc");
  expect_usage_exit("--seed=-3");
  expect_usage_exit("--horizon=1e5");
  expect_usage_exit("--horizon=99999999999999999999");  // u64 overflow
  expect_usage_exit("--burst=16units");
  expect_usage_exit("--trace=x");
  expect_usage_exit("--seeds=abc");  // refused: a single run reads no --seeds
  expect_usage_exit("--jobs=1.5");   // nor --jobs
}

TEST(CliUsage, RunModeRejectsNonFiniteRho) {
  expect_usage_exit("--rho=nan");
  expect_usage_exit("--rho=NaN");
  expect_usage_exit("--rho=inf");
  expect_usage_exit("--rho=-inf");
  expect_usage_exit("--rho=");
  expect_usage_exit("--rho=0.5x");
  expect_usage_exit("--rho=1.5");   // finite but out of range
  expect_usage_exit("--rho=-0.1");
}

TEST(CliUsage, UnknownArgumentsAreUsageErrors) {
  expect_usage_exit("--bogus=1");
  expect_usage_exit("--grid --bogus");
  expect_usage_exit("frobnicate");
}

// ---------------------------------------------------------- grid / msr

TEST(CliUsage, GridModeRejectsMalformedListValues) {
  expect_usage_exit("--grid --n=2,abc");
  expect_usage_exit("--grid --r=1,4294967297");
  expect_usage_exit("--grid --rho=0.4,nan");
  expect_usage_exit("--grid --rho=0.4,inf");
  expect_usage_exit("--grid --rho=0.4,2.0");
  expect_usage_exit("--grid --seeds=0");
  expect_usage_exit("--grid --seeds=abc");
  expect_usage_exit("--grid --jobs=1.5");
  expect_usage_exit("--grid --csv");  // a value flag without its value
}

TEST(CliUsage, GridModesRejectPattern) {
  // Grid cells always inject round-robin saturating traffic, so a
  // --pattern would silently describe a different workload.
  expect_usage_exit("--grid --pattern=maxqueue");
  expect_usage_exit("--grid --pattern=roundrobin --n=2,4");
  expect_usage_exit("serve --pattern=single");
  expect_usage_exit("serve --fuzz --pattern=maxqueue");
}

TEST(CliUsage, MsrModeRejectsMalformedNumerics) {
  expect_usage_exit("--msr --horizon=abc");
  expect_usage_exit("--msr --seed=1x");
  expect_usage_exit("--msr --rho=nan");  // refused: the search sets rho
  expect_usage_exit("--msr --burst=nan");
}

// tree-resolution splits contenders on feedback every station hears at
// once. On slots whose boundaries differ between stations its automaton
// used to abort the process (an uncaught AM_CHECK); every mode now
// refuses such a spec as a usage error, and runs it where the boundaries
// coincide.
TEST(CliUsage, SynchronousOnlyProtocolIsRefusedOnAsynchronousSlots) {
  const std::string tree = "--protocol=tree-resolution --horizon=2000 ";
  for (const std::string mode :
       {"", "--grid ", "--msr ", "live-serve --virtual "}) {
    const std::string rho = mode == "--msr " ? "" : "--rho=0.5 ";
    expect_usage_exit(mode + tree + rho + "--n=5 --r=2");
    expect_usage_exit(mode + tree + rho + "--n=4 --r=2 --policy=perstation");
    expect_usage_exit(mode + tree + rho + "--n=3 --r=2 --policy=random");
    for (const std::string shape :
         {"--n=1 --r=2", "--n=5 --r=1", "--n=5 --r=2 --policy=sync",
          "--n=5 --r=2 --policy=max"}) {
      const RunResult r = run_cli(mode + tree + rho + shape);
      EXPECT_TRUE(r.exited) << mode << shape << ": " << r.output;
      EXPECT_EQ(r.status, 0) << mode << shape << ": " << r.output;
    }
  }
}

// ------------------------------------------------- fuzz / stats / resume

TEST(CliUsage, FuzzRejectsMalformedNumerics) {
  expect_usage_exit("fuzz --cases=abc");
  expect_usage_exit("fuzz --cases=0");
  expect_usage_exit("fuzz --seed 12z");  // two-token form
  expect_usage_exit("fuzz --jobs=x");
  expect_usage_exit("fuzz --time-budget=-1");
  expect_usage_exit("fuzz --case-seed=beef");
  expect_usage_exit("fuzz --emit-case=1.0");
  expect_usage_exit("fuzz --seed");      // flag without a value
  expect_usage_exit("fuzz --no-shrink=1");  // a switch given a value
}

// A repro whose scenario no engine can be built for is a bad file: exit
// 2 before any replay. A replay that diverges exits 1, which is what a
// real regression of a clean corpus repro gives.
TEST(CliUsage, FuzzReproRefusesAScenarioNoEngineCanBeBuiltFor) {
  std::ifstream in(std::string(ASYNCMAC_GOLDEN_DIR) +
                   "/fuzz/tree_resolution_n5_r1_stretchtx.json");
  const std::string clean((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string path = ::testing::TempDir() + "cli_unbuildable_repro.json";
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"r\": 1,", "\"r\": 2,"},
        {"\"protocol\": \"tree-resolution\"",
         "\"protocol\": \"no-such-protocol\""}}) {
    SCOPED_TRACE(to);
    std::string edited = clean;
    const std::size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos);
    std::ofstream(path) << edited.replace(at, from.size(), to);
    const RunResult r = run_cli("fuzz --repro=" + path);
    EXPECT_TRUE(r.exited) << r.output;
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("bad repro file"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("replay:"), std::string::npos) << r.output;
  }
  std::remove(path.c_str());
}

// Every fuzz mode refuses a --protocol name the registry does not know,
// drawn or not.
TEST(CliUsage, FuzzRefusesAnUnknownProtocol) {
  expect_usage_exit("fuzz --cases=3 --protocol=ca-arrow,no-such-protocol");
  expect_usage_exit("fuzz --case-seed=5 --protocol=ca-arrow,no-such-protocol");
  expect_usage_exit("fuzz --emit-case=3 --protocol=ca-arrow,no-such-protocol");
}

TEST(CliUsage, StatsRejectsMalformedNumerics) {
  expect_usage_exit("stats file.jsonl --top=x");
  expect_usage_exit("stats file.jsonl --top=10x");
  expect_usage_exit("stats");  // missing file
}

TEST(CliUsage, StatsRejectsOutOfRangeNumbers) {
  // A number no double holds is a malformed line (exit 1), not an abort.
  const std::string path = ::testing::TempDir() + "stats_out_of_range.jsonl";
  std::ofstream(path)
      << R"({"type":"event","name":"x","t_ms":1e999,"fields":{}})" << "\n";
  const RunResult r = run_cli("stats " + path);
  EXPECT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("asyncmac_cli stats:"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliUsage, StatsRejectsDeepNestingWithoutCrashing) {
  // A line of 10^5 '[' is a malformed line (exit 1): the parser's depth
  // cap (util::kMaxJsonDepth) stops it before the recursion exhausts the
  // stack.
  const std::string path = ::testing::TempDir() + "stats_deep.jsonl";
  std::ofstream(path) << std::string(100000, '[') << "\n";
  const RunResult r = run_cli("stats " + path);
  EXPECT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("nesting deeper than"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliUsage, ResumeRejectsMalformedNumerics) {
  expect_usage_exit("resume ckpt.snap --horizon=abc");
  expect_usage_exit("resume ckpt.snap --trace=4x");
  expect_usage_exit("resume");  // missing path
}

// ----------------------------------------------------- serve / worker

TEST(CliUsage, ServeRejectsMalformedNumerics) {
  expect_usage_exit("serve --port=notaport");
  expect_usage_exit("serve --port=70000");  // > 65535
  expect_usage_exit("serve --lease-timeout-ms=abc");
  expect_usage_exit("serve --lease-timeout-ms=0");
  expect_usage_exit("serve --heartbeat-ms=1s");
  expect_usage_exit("serve --rho=nan");
  expect_usage_exit("serve --cases=x --fuzz");
}

// serve runs a grid or, with --fuzz, a fuzz campaign; a flag the chosen
// mode would ignore is refused rather than silently dropped.
TEST(CliUsage, ServeRejectsFlagsItsModeIgnores) {
  expect_usage_exit("serve --fuzz --protocol=ca-arrow");  // not the pool
  expect_usage_exit("serve --protocol=ca-arrow --fuzz");
  expect_usage_exit("serve --fuzz --n=4");
  expect_usage_exit("serve --fuzz --rho=0.5");
  expect_usage_exit("serve --fuzz --horizon=100");
  expect_usage_exit("serve --fuzz --restrained-k=1");
  expect_usage_exit("serve --fuzz --energy-model=1:1:1");
  expect_usage_exit("serve --fuzz --seeds=3");
  expect_usage_exit("serve --fuzz --csv=serve_fuzz.csv");
  expect_usage_exit("serve --fuzz --checkpoint-dir=serve_fuzz_ckpt");
  EXPECT_FALSE(std::filesystem::exists("serve_fuzz_ckpt"));
  expect_usage_exit("serve --cases=10");  // a grid serve
  expect_usage_exit("serve --protocol=ca-arrow --cases=10");
}

TEST(CliUsage, WorkerRejectsMalformedNumerics) {
  expect_usage_exit("worker --port=abc");
  expect_usage_exit("worker --port=99999");
  expect_usage_exit("worker");  // missing --port
}

// ----------------------------------------------- live-serve / live-station

TEST(CliUsage, LiveServeRejectsMalformedNumerics) {
  expect_usage_exit("live-serve --rho=nan");
  expect_usage_exit("live-serve --rho=inf");
  expect_usage_exit("live-serve --n=2x");
  expect_usage_exit("live-serve --r=4294967297");
  expect_usage_exit("live-serve --horizon=abc");
  expect_usage_exit("live-serve --port=70000");
  expect_usage_exit("live-serve --unit-us=0");
  expect_usage_exit("live-serve --unit-us=fast");
  expect_usage_exit("live-serve --idle-timeout-ms=0");
  expect_usage_exit("live-serve --emu-loss=abc");
  expect_usage_exit("live-serve --emu-loss=1.5");
  expect_usage_exit("live-serve --emu-delay-us=x");
  expect_usage_exit("live-serve --emu-seed=");
  expect_usage_exit("live-serve --n=2,4");  // comma lists need --grid
  expect_usage_exit("live-serve --n=65537");  // above live::kMaxStations
  expect_usage_exit("live-serve --bogus");
}

TEST(CliUsage, LiveStationRejectsMalformedNumerics) {
  expect_usage_exit("live-station --port=abc");
  expect_usage_exit("live-station --port=1234 --id=abc");
  expect_usage_exit("live-station --port=1234 --id=0");
  expect_usage_exit("live-station --port=1234");  // missing --id
  expect_usage_exit("live-station --id=1");       // missing --port
  expect_usage_exit("live-station --port=1234 --id=1 --retry-units=0");
  expect_usage_exit("live-station --port=1234 --id=1 --max-retries=x");
  expect_usage_exit("live-station --port=1234 --id=1 --unit-us=0");
}

// A sanity anchor: a well-formed invocation must NOT exit 2 (guards
// against the matrix passing because the binary always exits 2).
// ------------------------------------------------------------- resume

// `resume <dir>` takes the newest autosave, and a resumed leg autosaving
// into the same directory numbers on past the files already there. The
// first leg leaves its last saves (counters in the teens, recorded
// horizon 3000); the second leg's fewer saves must still be the newest,
// and its last one (recorded horizon 4000) must resume to the same stdout
// as an uninterrupted run.
TEST(CliResume, DirectoryResumesItsNewestCheckpoint) {
  const std::string dir = "cli_resume_newest_ckpt";
  std::filesystem::remove_all(dir);
  const std::string run = "--protocol=ca-arrow --rho=0.7 --trace=20 ";
  const RunResult control = run_cli(run + "--horizon=4000", true);
  ASSERT_EQ(control.status, 0);
  ASSERT_EQ(run_cli(run + "--horizon=3000 --checkpoint-every=500 "
                          "--checkpoint-dir=" + dir, true)
                .status,
            0);
  ASSERT_EQ(run_cli("resume " + dir + " --horizon=4000 --checkpoint-dir=" +
                        dir, true)
                .status,
            0);
  const RunResult resumed = run_cli("resume " + dir + " --trace=20", true);
  EXPECT_EQ(resumed.status, 0);
  EXPECT_EQ(resumed.output, control.output);
  std::filesystem::remove_all(dir);
}

// A checkpoint whose framing and CRC are valid but whose station 1
// automaton state byte names no CA-ARRoW state: `resume` refuses it as
// corrupt (exit 1) instead of aborting on the automaton's next slot.
TEST(CliResume, CraftedAutomatonByteExitsOne) {
  using namespace asyncmac;
  analysis::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 3;
  spec.bound_r = 2;
  spec.slot_policy = "sync";
  spec.has_injector = false;
  auto engine = analysis::build_engine(spec);
  engine->run(sim::until(100 * kTicksPerUnit));
  snapshot::Writer spec_bytes;
  analysis::save_run_spec(spec_bytes, spec);
  std::vector<std::uint8_t> payload =
      snapshot::encode_checkpoint(spec, *engine);
  // Engine layout up to station 1's protocol state (an empty queue): n
  // and R u32, four flags, queue length u64, queue cost i64, four RNG
  // words, slot index u64, slot begin and end i64, action u8.
  constexpr std::size_t kStation1StateAt =
      4 + 4 + 4 + 8 + 8 + 4 * 8 + 8 + 8 + 8 + 1;
  const std::size_t at = spec_bytes.buffer().size() + kStation1StateAt;
  ASSERT_LT(at, payload.size());
  payload[at] = 9;
  const std::string path = ::testing::TempDir() + "cli_crafted_state.snap";
  snapshot::write_file(path, snapshot::FileKind::kEngineRun, payload);
  const RunResult r = run_cli("resume " + path);
  EXPECT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("snapshot corrupt"), std::string::npos) << r.output;
  std::filesystem::remove(path);
}

TEST(CliResume, CraftedMbtfTokenExitsOne) {
  using namespace asyncmac;
  analysis::RunSpec spec;
  spec.protocol = "mbtf";
  spec.n = 3;
  spec.bound_r = 1;
  spec.slot_policy = "sync";
  spec.has_injector = false;
  auto engine = analysis::build_engine(spec);
  engine->run(sim::until(100 * kTicksPerUnit));
  snapshot::Writer spec_bytes;
  analysis::save_run_spec(spec_bytes, spec);
  std::vector<std::uint8_t> payload =
      snapshot::encode_checkpoint(spec, *engine);
  // Station 1's protocol state sits where CraftedAutomatonByteExitsOne's
  // does; MBTF's starts with its list (count u64, three u32 IDs), then
  // the token index u64.
  constexpr std::size_t kStation1TokenAt =
      4 + 4 + 4 + 8 + 8 + 4 * 8 + 8 + 8 + 8 + 1 + 8 + 3 * 4;
  const std::size_t at = spec_bytes.buffer().size() + kStation1TokenAt;
  ASSERT_LT(at + 8, payload.size());
  ASSERT_EQ(payload[at - 12 - 8], 3);  // the list count
  constexpr std::uint64_t kToken = 1000000;
  for (std::size_t i = 0; i < 8; ++i)
    payload[at + i] = static_cast<std::uint8_t>(kToken >> (8 * i));
  const std::string path = ::testing::TempDir() + "cli_crafted_mbtf.snap";
  snapshot::write_file(path, snapshot::FileKind::kEngineRun, payload);
  const RunResult r = run_cli("resume " + path + " --horizon=400");
  EXPECT_TRUE(r.exited) << "killed by a signal: " << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("snapshot corrupt"), std::string::npos) << r.output;
  std::filesystem::remove(path);
}

TEST(CliUsage, WellFormedRunExitsZero) {
  const RunResult r =
      run_cli("--protocol=ca-arrow --n=2 --rho=0.5 --horizon=200");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.status, 0) << r.output;
}

// ------------------------------------------------------- output paths

// An output the CLI cannot create exits 1 with a message: no abort, no
// "written" line for a file that does not exist, no serve left waiting.
// Each target sits under a regular file, so creating it fails.
class CliOutputPath : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = ::testing::TempDir() + "cli_output_path_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(file_);
    std::ofstream(file_) << "not a directory\n";
  }
  void TearDown() override { std::filesystem::remove_all(file_); }

  // `timeout` turns a serve that keeps listening into a failure rather
  // than a hung suite.
  static void expect_output_failure(const std::string& args) {
    SCOPED_TRACE(args);
    const RunResult r = run_cli(args, false, "timeout 60 ");
    EXPECT_TRUE(r.exited) << "killed by a signal: " << r.output;
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("asyncmac_cli"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("written"), std::string::npos) << r.output;
  }

  std::string file_;  ///< a regular file, unique to the test
};

TEST_F(CliOutputPath, GridCsvExitsOne) {
  expect_output_failure("--grid --protocol=rrw --n=2 --horizon=200 --csv=" +
                        file_ + "/x.csv");
}

TEST_F(CliOutputPath, GridCheckpointDirExitsOne) {
  expect_output_failure(
      "--grid --protocol=rrw --n=2 --horizon=200 --checkpoint-dir=" + file_ +
      "/ck");
}

TEST_F(CliOutputPath, EmittedReproExitsOne) {
  expect_output_failure("fuzz --seed=1 --emit-case=3 --repro-out=" + file_ +
                        "/case.json");
}

TEST_F(CliOutputPath, ServeCheckpointDirExitsOne) {
  expect_output_failure("serve --protocol=rrw --n=2 --horizon=200 "
                        "--checkpoint-dir=" + file_ + "/ck");
}

TEST_F(CliOutputPath, AutosaveDirExitsOne) {
  expect_output_failure(
      "--protocol=rrw --n=2 --horizon=200 --checkpoint-every=10 "
      "--checkpoint-dir=" + file_ + "/ck");
  // resume builds its saver the same way.
  const std::string dir = file_ + "_ckpt";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_cli("--protocol=rrw --n=2 --horizon=200 "
                    "--checkpoint-every=10 --checkpoint-dir=" + dir)
                .status,
            0);
  expect_output_failure("resume " + dir + " --horizon=300 --checkpoint-dir=" +
                        file_ + "/ck");
  std::filesystem::remove_all(dir);
}

TEST_F(CliOutputPath, ServePortFileExitsOne) {
  expect_output_failure("serve --protocol=rrw --n=2 --horizon=200 "
                        "--port-file=" + file_ + "/port.txt");
  expect_output_failure("serve --fuzz --cases=1 --port-file=" + file_ +
                        "/port.txt");
}

// --csv is opened before the sweep: a path under a regular file exits 1
// before the first unit runs, so a grid prints no record row and `serve`
// never binds its listener (no worker is ever needed to end it).
std::string regular_file(const std::string& name) {
  const std::string file = ::testing::TempDir() + name;
  std::filesystem::remove_all(file);
  std::ofstream(file) << "not a directory\n";
  return file;
}

TEST(CliUsage, GridCsvFailsBeforeAnyUnitRuns) {
  const std::string file = regular_file("cli_grid_csv_first");
  const RunResult r = run_cli(
      "--grid --protocol=rrw,aloha --n=2,4 --rho=0.5,0.9 --horizon=100000 "
      "--csv=" + file + "/x.csv");
  EXPECT_TRUE(r.exited) << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("cannot write " + file + "/x.csv"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("rrw"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("aloha"), std::string::npos) << r.output;
  std::filesystem::remove_all(file);
}

TEST(CliUsage, ServeCsvFailsBeforeListening) {
  const std::string file = regular_file("cli_serve_csv_first");
  const RunResult r =
      run_cli("serve --protocol=rrw --n=2 --horizon=200 --csv=" + file +
                  "/x.csv",
              false, "timeout 30 ");
  EXPECT_TRUE(r.exited) << r.output;
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("cannot write " + file + "/x.csv"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("listening"), std::string::npos) << r.output;
  std::filesystem::remove_all(file);
}

// ------------------------------------------------- flag x mode matrix

// The contract, written out here independently of the CLI's flag table:
// every flag the CLI knows, and for each mode the flags it reads.
const std::vector<std::string> kAllFlags = {
    "--protocol", "--n", "--r", "--rho", "--burst", "--policy", "--pattern",
    "--horizon", "--seed", "--telemetry", "--restrained-k", "--energy-model",
    "--json", "--trace", "--grid", "--msr", "--seeds", "--jobs", "--csv",
    "--checkpoint-every", "--checkpoint-dir", "--cases", "--time-budget",
    "--no-shrink", "--repro-out", "--checkpoint", "--repro", "--case-seed",
    "--emit-case", "--top", "--fuzz", "--port", "--port-file",
    "--lease-timeout-ms", "--heartbeat-ms", "--host", "--name", "--virtual",
    "--unit-us", "--idle-timeout-ms", "--emu-loss", "--emu-delay-us",
    "--emu-jitter-us", "--emu-seed", "--id", "--retry-units",
    "--max-retries"};
const std::vector<std::string> kSwitches = {"--json", "--grid", "--msr",
                                            "--no-shrink", "--fuzz",
                                            "--virtual"};

std::vector<std::string> run_flags(std::vector<std::string> except = {}) {
  std::vector<std::string> out;
  for (const char* f :
       {"--protocol", "--n", "--r", "--rho", "--burst", "--policy",
        "--pattern", "--horizon", "--seed", "--telemetry", "--restrained-k",
        "--energy-model"})
    if (std::find(except.begin(), except.end(), f) == except.end())
      out.push_back(f);
  return out;
}

std::vector<std::string> plus(std::vector<std::string> a,
                              const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

struct ModeCase {
  std::string name;
  std::string prefix;                  ///< subcommand word, selector, file
  std::vector<std::string> reads;    ///< the flags this mode reads
  std::vector<std::string> selects;  ///< selectors that pick another mode
  std::string setup;   ///< run before `accept`; must exit 0
  std::string accept;  ///< every flag in `reads`; {T} = a temp prefix
  int accept_status;
};

// Test listings name a case by its mode; gtest would print the bytes.
void PrintTo(const ModeCase& mode, std::ostream* os) { *os << mode.name; }

std::vector<ModeCase> mode_cases() {
  const std::string golden =
      std::string(ASYNCMAC_GOLDEN_DIR) + "/fuzz/ca_arrow_n4_r2_random.json";
  const std::string run_args =
      "--protocol=ca-arrow --n=3 --r=2 --burst=8 --policy=max "
      "--horizon=300 --seed=5 --telemetry={T}t.jsonl --restrained-k=1:reject";
  const std::string live_args = run_args +
      " --rho=0.6 --pattern=random --energy-model=4:2:1 --json --trace=10 "
      "--unit-us=500 --emu-loss=0.05 --emu-delay-us=50 --emu-jitter-us=50 "
      "--emu-seed=3";
  const std::string grid_args =
      "--protocol=ca-arrow,aloha --n=2,3 --r=1,2 --rho=0.3,0.7 --burst=8 "
      "--policy=sync,random --horizon=300 --seed=5 --telemetry={T}t.jsonl "
      "--restrained-k=2:jam --energy-model=4:2:1 --seeds=2 --csv={T}g.csv "
      "--checkpoint-dir={T}ck";
  const std::string serve_tail =
      " --port=0 --port-file={T}port.txt --lease-timeout-ms=500 "
      "--heartbeat-ms=100 --help";
  const std::vector<std::string> serve_flags = {
      "--port", "--port-file", "--lease-timeout-ms", "--heartbeat-ms"};
  return {
      {"run", "", plus(run_flags(), {"--json", "--trace",
                                     "--checkpoint-every", "--checkpoint-dir"}),
       {"--grid", "--msr"}, "",
       run_args + " --rho=0.6 --pattern=random --energy-model=4:2:1 --json "
                  "--trace=10 --checkpoint-every=50 --checkpoint-dir={T}ck",
       0},
      {"grid", "--grid",
       plus(run_flags({"--pattern"}),
            {"--grid", "--seeds", "--jobs", "--csv", "--checkpoint-dir"}),
       {}, "", "--grid " + grid_args + " --jobs=2", 0},
      {"msr", "--msr", plus(run_flags({"--rho", "--energy-model"}), {"--msr"}),
       {}, "", "--msr " + run_args + " --pattern=single", 0},
      {"resume", "resume {T}ck",
       {"--horizon", "--json", "--trace", "--telemetry", "--checkpoint-dir"},
       {},
       "--protocol=ca-arrow --horizon=300 --checkpoint-every=50 "
       "--checkpoint-dir={T}ck",
       "resume {T}ck --horizon=400 --json --trace=10 "
       "--telemetry={T}t.jsonl --checkpoint-dir={T}ck",
       0},
      {"fuzz", "fuzz",
       {"--seed", "--cases", "--jobs", "--time-budget", "--protocol",
        "--no-shrink", "--repro-out", "--telemetry", "--checkpoint"},
       {"--repro", "--case-seed", "--emit-case"}, "",
       "fuzz --seed=3 --cases=20 --jobs=2 --time-budget=60 "
       "--protocol=ca-arrow,aloha --no-shrink --repro-out={T}r.json "
       "--telemetry={T}t.jsonl --checkpoint={T}c.snap",
       0},
      {"fuzz_repro", "fuzz --repro=" + golden, {"--repro", "--telemetry"},
       {}, "",
       "fuzz --repro=" + golden + " --telemetry={T}t.jsonl", 0},
      {"fuzz_case_seed", "fuzz --case-seed=5",
       {"--case-seed", "--protocol", "--telemetry"}, {}, "",
       "fuzz --case-seed=5 --protocol=ca-arrow,aloha --telemetry={T}t.jsonl",
       0},
      {"fuzz_emit_case", "fuzz --emit-case=3",
       {"--emit-case", "--seed", "--protocol", "--repro-out", "--telemetry"},
       {}, "",
       "fuzz --emit-case=3 --seed=3 --protocol=ca-arrow,aloha "
       "--repro-out={T}e.json --telemetry={T}t.jsonl",
       0},
      {"stats", "stats {T}in.jsonl", {"--top"}, {}, "",
       "stats {T}in.jsonl --top=5", 0},
      {"serve", "serve",
       plus(run_flags({"--pattern"}),
            plus({"--seeds", "--csv", "--checkpoint-dir"}, serve_flags)),
       {"--fuzz"}, "", "serve " + grid_args + serve_tail, 0},
      {"serve_fuzz", "serve --fuzz",
       plus({"--fuzz", "--seed", "--cases", "--telemetry"}, serve_flags), {},
       "", "serve --fuzz --seed=3 --cases=5 --telemetry={T}t.jsonl" +
               serve_tail,
       0},
      {"worker", "worker", {"--host", "--port", "--name"}, {}, "",
       "worker --host=127.0.0.1 --port=1 --name=w", 1},
      {"live_serve", "live-serve",
       plus(run_flags(), {"--json", "--trace", "--port", "--port-file",
                          "--unit-us", "--idle-timeout-ms", "--emu-loss",
                          "--emu-delay-us", "--emu-jitter-us", "--emu-seed"}),
       {"--virtual"}, "",
       "live-serve " + live_args +
           " --port=0 --port-file={T}port.txt --idle-timeout-ms=1",
       1},
      {"live_serve_virtual", "live-serve --virtual",
       plus(run_flags(), {"--virtual", "--json", "--trace", "--unit-us",
                          "--emu-loss", "--emu-delay-us", "--emu-jitter-us",
                          "--emu-seed"}),
       {}, "", "live-serve --virtual " + live_args, 0},
      {"live_station", "live-station",
       {"--host", "--port", "--id", "--name", "--unit-us", "--retry-units",
        "--max-retries"},
       {}, "",
       "live-station --host=127.0.0.1 --port=1 --id=1 --name=s "
       "--unit-us=1000 --retry-units=1 --max-retries=1",
       1},
  };
}

std::string expand(std::string s, const std::string& temp) {
  for (std::size_t at; (at = s.find("{T}")) != std::string::npos;)
    s.replace(at, 3, temp);
  return s;
}

class CliModeMatrix : public ::testing::TestWithParam<ModeCase> {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(temp_);
    std::filesystem::create_directories(temp_);
    std::ofstream(temp_ + "in.jsonl")
        << R"({"type":"event","name":"x","t_ms":1,"fields":{}})" << "\n";
  }
  void TearDown() override { std::filesystem::remove_all(temp_); }

  const std::string temp_ =
      ::testing::TempDir() + "cli_matrix_" + GetParam().name + "/";
};

// Every flag outside the mode's set exits 2 with a message naming it, and
// leaves no side effect: no telemetry file, nothing at the flag's path.
TEST_P(CliModeMatrix, RefusesEveryFlagItDoesNotRead) {
  const ModeCase& mode = GetParam();
  const auto has = [](const std::vector<std::string>& v,
                      const std::string& f) {
    return std::find(v.begin(), v.end(), f) != v.end();
  };
  int refused = 0;
  for (const std::string& flag : kAllFlags) {
    // Another selector of a selected mode's family is refused too: two
    // selectors of one family exit 2.
    if (has(mode.reads, flag) || has(mode.selects, flag)) continue;
    std::string args = expand(mode.prefix, temp_);
    if (has(mode.reads, "--telemetry")) args += " --telemetry=" + temp_ + "t";
    args += " " + flag;
    if (!has(kSwitches, flag)) args += "=" + temp_ + "side";
    SCOPED_TRACE(args);
    const RunResult r = run_cli(args);
    EXPECT_TRUE(r.exited) << r.output;
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("asyncmac_cli: " + flag + " "), std::string::npos)
        << r.output;
    EXPECT_FALSE(std::filesystem::exists(temp_ + "t")) << "telemetry opened";
    EXPECT_FALSE(std::filesystem::exists(temp_ + "side")) << "path created";
    ++refused;
  }
  EXPECT_GT(refused, 20);
}

// An invocation carrying every flag the mode reads is not refused. The
// blocking modes meet an unreachable port, a 1 ms idle timeout or a
// trailing --help.
TEST_P(CliModeMatrix, AcceptsEveryFlagItReads) {
  const ModeCase& mode = GetParam();
  const std::string accept = expand(mode.accept, temp_);
  for (const std::string& flag : mode.reads) {
    const bool value =
        std::find(kSwitches.begin(), kSwitches.end(), flag) == kSwitches.end();
    EXPECT_NE(accept.find(flag + (value ? "=" : "")), std::string::npos)
        << flag << " missing from " << accept;
  }
  if (!mode.setup.empty()) {
    ASSERT_EQ(run_cli(expand(mode.setup, temp_)).status, 0);
  }
  SCOPED_TRACE(accept);
  const RunResult r = run_cli(accept);
  EXPECT_TRUE(r.exited) << r.output;
  EXPECT_EQ(r.status, mode.accept_status) << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CliModeMatrix, ::testing::ValuesIn(mode_cases()),
    [](const ::testing::TestParamInfo<ModeCase>& p) { return p.param.name; });

}  // namespace
