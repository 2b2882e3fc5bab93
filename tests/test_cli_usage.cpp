// Bad-usage argv matrix for asyncmac_cli: every subcommand, fed
// malformed / overflowing / empty / non-finite numeric values, must exit
// with the usage status (2) and a usage message — never std::terminate
// on an uncaught std::sto* exception, and never silently accept trailing
// garbage ("--n=8x") or wrap on u32 overflow ("--r=4294967297").
//
// The tests spawn the real binary (path injected via ASYNCMAC_CLI_BIN)
// because ctest's WILL_FAIL cannot distinguish a clean exit 2 from an
// abort: WIFEXITED must hold AND the status must be exactly 2. The same
// spawner drives `resume <dir>` end to end, whose newest-checkpoint rule
// only the CLI applies to a directory.
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  bool exited = false;  ///< terminated via exit(), not a signal
  int status = -1;      ///< WEXITSTATUS when exited
  std::string output;   ///< combined stdout+stderr
};

/// Runs the CLI; stderr is folded into the output (so the usage message
/// is observable) unless `stdout_only`.
RunResult run_cli(const std::string& args, bool stdout_only = false) {
  const std::string cmd = std::string(ASYNCMAC_CLI_BIN) + " " + args +
                          (stdout_only ? " 2>/dev/null" : " 2>&1");
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
  expect_usage_exit("--seeds=abc");
  expect_usage_exit("--jobs=1.5");
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
  expect_usage_exit("--msr --rho=nan");
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

TEST(CliUsage, WellFormedRunExitsZero) {
  const RunResult r =
      run_cli("--protocol=ca-arrow --n=2 --rho=0.5 --horizon=200");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.status, 0) << r.output;
}

}  // namespace
