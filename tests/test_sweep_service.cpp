// The distributed-sweep service (sweep/coordinator.h, sweep/worker.h,
// sweep/loopback.h): deterministic fault-injection over the in-process
// loopback transport. Every failure mode the coordinator promises to
// absorb — worker killed mid-chunk, lease expiry and reassignment,
// duplicate and late results, corrupt frames, lying payloads — is staged
// here with a scripted fault and a virtual clock, and the merged results
// must stay byte-identical to a single-process analysis::run_grid /
// verify::run_campaign of the same job.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "snapshot/io.h"
#include "sweep/coordinator.h"
#include "sweep/loopback.h"
#include "sweep/protocol.h"
#include "sweep/worker.h"
#include "telemetry/registry.h"
#include "verify/campaign.h"

namespace asyncmac {
namespace {

using namespace asyncmac::sweep;
using snapshot::ErrorKind;
using snapshot::SnapshotError;

analysis::ExperimentSpec small_spec() {
  analysis::ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "rrw"};
  spec.station_counts = {2};
  spec.bounds_r = {2};
  spec.rho_percents = {40, 60};
  spec.slot_policies = {"perstation"};
  spec.horizon_units = 300;
  spec.seed = 1;
  spec.seeds = 2;
  spec.jobs = 1;
  return spec;
}

SweepJob grid_job() {
  SweepJob job;
  job.kind = JobKind::kGrid;
  job.grid = small_spec();
  return job;
}

CoordinatorConfig fast_config(SweepJob job) {
  CoordinatorConfig cfg;
  cfg.job = std::move(job);
  cfg.lease_timeout_ms = 1000;  // 10 loopback steps at the default tick
  cfg.heartbeat_ms = 200;
  cfg.nowork_retry_ms = 100;
  return cfg;
}

/// Byte-level equality of record vectors via the canonical wire encoding.
void expect_records_identical(
    const std::vector<analysis::ExperimentRecord>& got,
    const std::vector<analysis::ExperimentRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(encode_grid_result(got), encode_grid_result(want));
  // The rendered table is the CLI-visible face of the same bytes.
  EXPECT_EQ(analysis::to_table(got), analysis::to_table(want));
}

std::uint64_t counter(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

class SweepServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::Registry::global().reset_values();
    telemetry::set_enabled(true);
  }
  void TearDown() override { telemetry::set_enabled(false); }
};

// ------------------------------------------------------------ happy path

TEST_F(SweepServiceTest, ThreeWorkersMatchSingleProcessRunGrid) {
  const auto control = analysis::run_grid(small_spec());

  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w1, w2, w3;
  net.attach(w1);
  net.attach(w2);
  net.attach(w3);
  ASSERT_TRUE(net.run());
  ASSERT_TRUE(coord.done());
  expect_records_identical(coord.grid_records(), control);
  EXPECT_TRUE(w1.finished());
  EXPECT_TRUE(w2.finished());
  EXPECT_TRUE(w3.finished());
  EXPECT_EQ(counter("sweep.results"), coord.units_total());
  EXPECT_EQ(counter("sweep.worker_deaths"), 0u);
  EXPECT_EQ(counter("sweep.dup_results"), 0u);
}

TEST_F(SweepServiceTest, SingleWorkerAlsoMatches) {
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w;
  net.attach(w);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
}

// ----------------------------------------------------------- fault paths

TEST_F(SweepServiceTest, WorkerKilledMidChunkIsReassignedByteIdentical) {
  const auto control = analysis::run_grid(small_spec());

  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w1, w2;
  const std::uint64_t c1 = net.attach(w1);
  net.attach(w2);
  // Worker 1's frames toward the coordinator: Hello(0), RequestWork(1),
  // Result(2). Sever the link exactly when its first computed Result
  // would leave — the distributed equivalent of SIGKILL mid-chunk.
  net.add_fault(c1, LoopbackNet::Dir::kToCoordinator, 2,
                LoopbackNet::FaultKind::kSever);
  ASSERT_TRUE(net.run());
  ASSERT_TRUE(coord.done());
  EXPECT_FALSE(net.worker_alive(c1));
  expect_records_identical(coord.grid_records(), control);
  EXPECT_EQ(counter("sweep.worker_deaths"), 1u);
  EXPECT_GE(counter("sweep.reassigns"), 1u);
}

TEST_F(SweepServiceTest, CorruptedResultFrameSeversWorkerButSweepCompletes) {
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w1, w2;
  const std::uint64_t c1 = net.attach(w1);
  net.attach(w2);
  // Flip a byte inside worker 1's first Result payload in flight: the
  // frame CRC catches it, the coordinator severs, worker 2 finishes.
  net.add_fault(c1, LoopbackNet::Dir::kToCoordinator, 2,
                LoopbackNet::FaultKind::kCorrupt, /*arg=*/30);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
  EXPECT_FALSE(net.worker_alive(c1));
  EXPECT_EQ(counter("sweep.protocol_errors"), 1u);
}

TEST_F(SweepServiceTest, DuplicatedResultFrameMergesOnce) {
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w;
  const std::uint64_t c = net.attach(w);
  // The network delivers worker's first Result twice (retransmit race).
  net.add_fault(c, LoopbackNet::Dir::kToCoordinator, 2,
                LoopbackNet::FaultKind::kDuplicate);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
  EXPECT_EQ(counter("sweep.dup_results"), 1u);
  EXPECT_TRUE(w.finished());
}

TEST_F(SweepServiceTest, DelayedResultStillMerges) {
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w1, w2;
  const std::uint64_t c1 = net.attach(w1);
  net.attach(w2);
  net.add_fault(c1, LoopbackNet::Dir::kToCoordinator, 2,
                LoopbackNet::FaultKind::kDelay, /*arg=*/5);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
}

TEST_F(SweepServiceTest, WorkerKilledWhileIdleBetweenUnits) {
  // The 8 cells are 4 distinct runs (ca-arrow and rrw draw no seed, so
  // each cell's 2 seed replicas are one run), one per unit: 4 units keep
  // worker 1 mid-sweep at the kill step (idle between its units).
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession w1, w2;
  const std::uint64_t c1 = net.attach(w1);
  net.attach(w2);
  for (int i = 0; i < 3; ++i) net.step();
  net.kill_worker(c1);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
  EXPECT_EQ(counter("sweep.worker_deaths"), 1u);
}

TEST_F(SweepServiceTest, ExecutorFailureIsAWorkerDeathNotACoordinatorError) {
  const auto control = analysis::run_grid(small_spec());
  Coordinator coord(fast_config(grid_job()));
  LoopbackNet net(coord);
  WorkerSession broken({}, [](const WorkerSession::Context&,
                              const AssignMsg&) -> std::vector<std::uint8_t> {
    throw std::runtime_error("simulated engine crash");
  });
  WorkerSession good;
  net.attach(broken);
  net.attach(good);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);
  EXPECT_TRUE(broken.failed());
  EXPECT_EQ(counter("sweep.worker_deaths"), 1u);
}

// ------------------------------------------- sans-IO protocol edge cases

/// Drive the coordinator directly (no loopback): hand-rolled frames and
/// an explicit virtual clock expose lease timing and idempotence corners.
struct DirectDriver {
  Coordinator& coord;
  std::uint64_t now = 0;

  std::vector<Action> feed(std::uint64_t conn,
                           const std::vector<std::uint8_t>& frame) {
    return coord.on_bytes(conn, frame.data(), frame.size(), now);
  }
  /// First decoded message of the actions' kSend frames, asserted to
  /// target `conn`.
  template <typename M>
  M expect_sent(const std::vector<Action>& actions, std::uint64_t conn) {
    for (const auto& a : actions) {
      if (a.kind != Action::Kind::kSend || a.conn != conn) continue;
      FrameDecoder dec;
      dec.feed(a.frame);
      auto f = dec.next();
      if (!f.has_value()) continue;
      const Message m = decode_message(*f);
      if (const M* typed = std::get_if<M>(&m)) return *typed;
    }
    ADD_FAILURE() << "expected message not sent";
    return M{};
  }
};

TEST_F(SweepServiceTest, LeaseExpiresAndReassignsThenLateResultIsIdempotent) {
  const analysis::ExperimentSpec spec = small_spec();
  const analysis::GridPlan plan = analysis::plan_grid(spec);
  CoordinatorConfig cfg = fast_config(grid_job());
  Coordinator coord(cfg);
  DirectDriver d{coord};

  // Worker A joins and leases unit 0...
  coord.on_connect(1, d.now);
  d.feed(1, to_frame(HelloMsg{"a"}));
  auto assign_a = d.expect_sent<AssignMsg>(
      d.feed(1, to_frame(RequestWorkMsg{1})), 1);
  EXPECT_EQ(assign_a.unit_index, 0u);

  // ...then goes silent past the lease timeout: the unit returns to the
  // pool and worker B is handed the SAME unit under a NEW lease.
  d.now += cfg.lease_timeout_ms + 1;
  coord.on_tick(d.now);
  EXPECT_EQ(counter("sweep.reassigns"), 1u);
  coord.on_connect(2, d.now);
  d.feed(2, to_frame(HelloMsg{"b"}));
  auto assign_b = d.expect_sent<AssignMsg>(
      d.feed(2, to_frame(RequestWorkMsg{2})), 2);
  EXPECT_EQ(assign_b.unit_index, 0u);
  EXPECT_NE(assign_b.lease_id, assign_a.lease_id);

  // Worker A's LATE result (computed under the revoked lease) arrives
  // first. Deterministic engines make it the right bytes — it merges.
  std::vector<std::size_t> todo;
  for (std::uint64_t i = 0; i < assign_a.count; ++i)
    todo.push_back(static_cast<std::size_t>(assign_a.first + i));
  const auto unit_records = analysis::run_grid_cells(spec, plan, todo);
  ResultMsg late;
  late.worker_id = 1;
  late.lease_id = assign_a.lease_id;
  late.unit_index = assign_a.unit_index;
  late.unit_id = assign_a.unit_id;
  late.payload = encode_grid_result(unit_records);
  auto ack_a = d.expect_sent<ResultAckMsg>(d.feed(1, to_frame(late)), 1);
  EXPECT_FALSE(ack_a.duplicate);
  EXPECT_EQ(coord.units_done(), 1u);

  // Worker B finishes the same unit: acked as a duplicate, merged once.
  ResultMsg dup = late;
  dup.worker_id = 2;
  dup.lease_id = assign_b.lease_id;
  auto ack_b = d.expect_sent<ResultAckMsg>(d.feed(2, to_frame(dup)), 2);
  EXPECT_TRUE(ack_b.duplicate);
  EXPECT_EQ(coord.units_done(), 1u);
  EXPECT_EQ(counter("sweep.dup_results"), 1u);

  // The merged cells carry exactly the single-process bytes.
  for (std::uint64_t i = 0; i < assign_a.count; ++i)
    EXPECT_EQ(encode_grid_result({coord.grid_records()[assign_a.first + i]}),
              encode_grid_result({unit_records[i]}));
}

TEST_F(SweepServiceTest, HeartbeatKeepsLeaseAlivePastTheTimeout) {
  CoordinatorConfig cfg = fast_config(grid_job());
  Coordinator coord(cfg);
  DirectDriver d{coord};
  coord.on_connect(1, d.now);
  d.feed(1, to_frame(HelloMsg{"a"}));
  d.expect_sent<AssignMsg>(d.feed(1, to_frame(RequestWorkMsg{1})), 1);
  // Heartbeats at half the timeout, clock marching well past several
  // timeouts: the lease must survive.
  for (int i = 0; i < 6; ++i) {
    d.now += cfg.lease_timeout_ms / 2;
    d.feed(1, to_frame(HeartbeatMsg{1}));
    coord.on_tick(d.now);
  }
  EXPECT_EQ(counter("sweep.reassigns"), 0u);
}

TEST_F(SweepServiceTest, LyingResultPayloadIsRejectedAndSevers) {
  const analysis::ExperimentSpec spec = small_spec();
  Coordinator coord(fast_config(grid_job()));
  DirectDriver d{coord};
  coord.on_connect(1, d.now);
  d.feed(1, to_frame(HelloMsg{"a"}));
  auto assign = d.expect_sent<AssignMsg>(
      d.feed(1, to_frame(RequestWorkMsg{1})), 1);

  // Records for the WRONG cells (a different protocol than the plan's).
  analysis::ExperimentRecord bogus;
  bogus.protocol = "not-in-this-grid";
  bogus.n = 99;
  ResultMsg res;
  res.worker_id = 1;
  res.lease_id = assign.lease_id;
  res.unit_index = assign.unit_index;
  res.unit_id = assign.unit_id;
  res.payload = encode_grid_result(
      std::vector<analysis::ExperimentRecord>(assign.count, bogus));
  const auto actions = d.feed(1, to_frame(res));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, Action::Kind::kClose);
  EXPECT_EQ(coord.units_done(), 0u);
  EXPECT_EQ(counter("sweep.protocol_errors"), 1u);
}

TEST_F(SweepServiceTest, ProtocolViolationsSever) {
  Coordinator coord(fast_config(grid_job()));
  DirectDriver d{coord};
  // Speaking before Hello.
  coord.on_connect(1, d.now);
  auto acts = d.feed(1, to_frame(RequestWorkMsg{1}));
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, Action::Kind::kClose);
  // Duplicate Hello.
  coord.on_connect(2, d.now);
  d.feed(2, to_frame(HelloMsg{"b"}));
  acts = d.feed(2, to_frame(HelloMsg{"b again"}));
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, Action::Kind::kClose);
  // Result for an out-of-range unit.
  coord.on_connect(3, d.now);
  d.feed(3, to_frame(HelloMsg{"c"}));
  ResultMsg res;
  res.worker_id = 3;
  res.unit_index = 1u << 20;
  res.unit_id = 1;
  acts = d.feed(3, to_frame(res));
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, Action::Kind::kClose);
  EXPECT_EQ(counter("sweep.protocol_errors"), 3u);
}

TEST_F(SweepServiceTest, EofMidFrameCountsAsWorkerDeath) {
  Coordinator coord(fast_config(grid_job()));
  DirectDriver d{coord};
  coord.on_connect(1, d.now);
  d.feed(1, to_frame(HelloMsg{"a"}));
  const auto frame = to_frame(HeartbeatMsg{1});
  coord.on_bytes(1, frame.data(), frame.size() / 2, d.now);  // half a frame
  const auto acts = coord.on_eof(1, d.now);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, Action::Kind::kClose);
  EXPECT_EQ(counter("sweep.worker_deaths"), 1u);
}

// -------------------------------------------------------- manifest merge

TEST_F(SweepServiceTest, DistributedRunResumesAPartialManifest) {
  namespace fs = std::filesystem;
  const auto control = analysis::run_grid(small_spec());
  const analysis::ExperimentSpec spec = small_spec();
  const analysis::GridPlan plan = analysis::plan_grid(spec);
  const std::string dir = "sweep_service_manifest_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A prior (single-process or distributed) run finished the first unit:
  // its manifest marks those cells done with the control's bytes.
  std::vector<std::uint8_t> done(plan.cells.size(), 0);
  std::vector<analysis::ExperimentRecord> records(plan.cells.size());
  for (std::size_t i = 0; i < plan.units[0].count; ++i) {
    done[plan.units[0].first + i] = 1;
    records[plan.units[0].first + i] = control[plan.units[0].first + i];
  }
  analysis::write_grid_manifest(dir, analysis::grid_fingerprint(spec), done,
                                records);

  CoordinatorConfig cfg = fast_config(grid_job());
  cfg.checkpoint_dir = dir;
  Coordinator coord(cfg);
  EXPECT_EQ(coord.units_done(), 1u);  // resumed, not recomputed

  LoopbackNet net(coord);
  WorkerSession w;
  net.attach(w);
  ASSERT_TRUE(net.run());
  expect_records_identical(coord.grid_records(), control);

  // The merged manifest is loadable and complete.
  std::vector<std::uint8_t> done2(plan.cells.size(), 0);
  std::vector<analysis::ExperimentRecord> records2(plan.cells.size());
  const std::size_t n_done = analysis::load_grid_manifest(
      dir, analysis::grid_fingerprint(spec), done2, records2);
  EXPECT_EQ(n_done, plan.cells.size());
  expect_records_identical(records2, control);
  fs::remove_all(dir);
}

// A checkpoint directory that does not exist yet is created, as
// analysis::run_grid creates its own, and every result is merged into it.
TEST_F(SweepServiceTest, MissingManifestDirectoryIsCreated) {
  namespace fs = std::filesystem;
  const std::string dir = "sweep_service_manifest_new/nested";
  fs::remove_all("sweep_service_manifest_new");
  CoordinatorConfig cfg = fast_config(grid_job());
  cfg.checkpoint_dir = dir;
  Coordinator coord(cfg);
  LoopbackNet net(coord);
  WorkerSession w;
  net.attach(w);
  ASSERT_TRUE(net.run());
  const analysis::ExperimentSpec spec = small_spec();
  const analysis::GridPlan plan = analysis::plan_grid(spec);
  std::vector<std::uint8_t> done(plan.cells.size(), 0);
  std::vector<analysis::ExperimentRecord> records(plan.cells.size());
  EXPECT_EQ(analysis::load_grid_manifest(dir, analysis::grid_fingerprint(spec),
                                         done, records),
            plan.cells.size());
  fs::remove_all("sweep_service_manifest_new");
}

// A manifest the coordinator cannot write is its own failure: it leaves
// the run as a plain runtime_error, not as a SnapshotError that would be
// taken for the worker's malformed frame and sever the worker.
TEST_F(SweepServiceTest, ManifestWriteFailureIsNotBlamedOnTheWorker) {
  namespace fs = std::filesystem;
  const std::string dir = "sweep_service_manifest_gone";
  fs::remove_all(dir);
  CoordinatorConfig cfg = fast_config(grid_job());
  cfg.checkpoint_dir = dir;
  Coordinator coord(cfg);
  fs::remove_all(dir);
  std::ofstream(dir) << "a regular file now\n";
  LoopbackNet net(coord);
  WorkerSession w;
  net.attach(w);
  try {
    (void)net.run();
    ADD_FAILURE() << "expected the manifest write to fail the run";
  } catch (const SnapshotError& e) {
    ADD_FAILURE() << "a SnapshotError reads as a malformed frame: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("grid manifest"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST_F(SweepServiceTest, ForeignManifestIsAMismatch) {
  namespace fs = std::filesystem;
  const std::string dir = "sweep_service_manifest_foreign";
  fs::remove_all(dir);
  fs::create_directories(dir);
  analysis::ExperimentSpec other = small_spec();
  other.horizon_units = 999;  // a different grid
  const analysis::GridPlan plan = analysis::plan_grid(other);
  analysis::write_grid_manifest(
      dir, analysis::grid_fingerprint(other),
      std::vector<std::uint8_t>(plan.cells.size(), 0),
      std::vector<analysis::ExperimentRecord>(plan.cells.size()));

  CoordinatorConfig cfg = fast_config(grid_job());
  cfg.checkpoint_dir = dir;
  try {
    Coordinator coord(cfg);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------- fuzz jobs

TEST_F(SweepServiceTest, DistributedFuzzMatchesRunCampaignVerdicts) {
  verify::CampaignConfig control_cfg;
  control_cfg.seed = 5;
  control_cfg.cases = 24;
  control_cfg.jobs = 1;
  control_cfg.shrink = false;
  const auto control = verify::run_campaign(control_cfg);

  SweepJob job;
  job.kind = JobKind::kFuzz;
  job.fuzz.seed = 5;
  job.fuzz.cases = 24;
  job.fuzz.chunk = 8;
  Coordinator coord(fast_config(job));
  EXPECT_EQ(coord.units_total(), 3u);
  LoopbackNet net(coord);
  WorkerSession w1, w2;
  const std::uint64_t c1 = net.attach(w1);
  net.attach(w2);
  // One worker dies mid-campaign for good measure.
  net.add_fault(c1, LoopbackNet::Dir::kToCoordinator, 2,
                LoopbackNet::FaultKind::kSever);
  ASSERT_TRUE(net.run());

  ASSERT_EQ(coord.fuzz_verdicts().size(), control.verdicts.size());
  for (std::size_t i = 0; i < control.verdicts.size(); ++i) {
    EXPECT_EQ(coord.fuzz_verdicts()[i].index, control.verdicts[i].index);
    EXPECT_EQ(coord.fuzz_verdicts()[i].case_seed,
              control.verdicts[i].case_seed);
    EXPECT_EQ(coord.fuzz_verdicts()[i].ok, control.verdicts[i].ok);
    EXPECT_EQ(coord.fuzz_verdicts()[i].violation,
              control.verdicts[i].violation);
  }
}

}  // namespace
}  // namespace asyncmac
