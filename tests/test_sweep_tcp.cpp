// End-to-end sweep-service tests over real sockets: a serve() loop and
// run_worker() clients in the same process (separate threads), on an
// ephemeral localhost port. The loopback suite (test_sweep_service)
// owns the fault matrix; this file pins that the TCP transport — accept,
// partial reads, outbuf draining, heartbeat timing off a real clock —
// drives the same state machines to the same byte-identical results.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "sweep/coordinator.h"
#include "sweep/protocol.h"
#include "sweep/tcp.h"

namespace asyncmac {
namespace {

using namespace asyncmac::sweep;

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

/// A localhost connection that never sends a frame. serve() keeps
/// draining while any connection is open, so holding one across a sweep
/// means every worker is accepted — even one whose connect comes after
/// the sweep completed, which is then dismissed with its Shutdown.
int idle_connection(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(SweepTcp, ThreeWorkersOverSocketsMatchSingleProcess) {
  const auto spec = small_spec();
  const auto control = analysis::run_grid(spec);

  CoordinatorConfig cfg;
  cfg.job.kind = JobKind::kGrid;
  cfg.job.grid = spec;
  cfg.lease_timeout_ms = 10000;
  cfg.heartbeat_ms = 100;

  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();

  ServeOptions opt;
  opt.coord = cfg;
  opt.tick_ms = 20;
  opt.on_listening = [&](std::uint16_t p) { port_promise.set_value(p); };

  std::promise<ServeOutcome> outcome_promise;
  std::thread server([&] {
    try {
      outcome_promise.set_value(serve(opt));
    } catch (...) {
      outcome_promise.set_exception(std::current_exception());
    }
  });

  const std::uint16_t port = port_future.get();
  // The grid is small enough for two workers to finish it before the
  // third connects; the idle connection keeps serve() accepting until
  // all three have returned, whatever the thread scheduling.
  const int idle = idle_connection(port);
  std::vector<std::thread> workers;
  std::vector<int> rc(3, -1);
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      const std::string name(1, static_cast<char>('a' + i));
      rc[static_cast<std::size_t>(i)] = run_worker({"127.0.0.1", port, name});
    });
  }
  for (auto& t : workers) t.join();
  ::close(idle);
  const ServeOutcome outcome = outcome_promise.get_future().get();
  server.join();

  for (int i = 0; i < 3; ++i) EXPECT_EQ(rc[static_cast<std::size_t>(i)], 0);
  ASSERT_EQ(outcome.records.size(), control.size());
  EXPECT_EQ(encode_grid_result(outcome.records),
            encode_grid_result(control));
  EXPECT_EQ(analysis::to_table(outcome.records),
            analysis::to_table(control));
}

TEST(SweepTcp, WorkerAfterCompletionGetsCleanShutdown) {
  auto spec = small_spec();
  spec.rho_percents = {50};  // 2 cells, 1 unit — one worker finishes fast
  const auto control = analysis::run_grid(spec);

  CoordinatorConfig cfg;
  cfg.job.kind = JobKind::kGrid;
  cfg.job.grid = spec;

  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();
  ServeOptions opt;
  opt.coord = cfg;
  opt.tick_ms = 20;
  opt.on_listening = [&](std::uint16_t p) { port_promise.set_value(p); };

  ServeOutcome outcome;
  std::thread server([&] { outcome = serve(opt); });
  const std::uint16_t port = port_future.get();
  const int rc = run_worker({"127.0.0.1", port, "solo"});
  server.join();

  EXPECT_EQ(rc, 0);
  ASSERT_EQ(outcome.records.size(), control.size());
  EXPECT_EQ(encode_grid_result(outcome.records), encode_grid_result(control));
}

TEST(SweepTcp, ServeThrowsWhenPortTaken) {
  // Hold a port with a plain listening socket, then ask serve() to bind
  // the same one. Nothing here runs a unit, so a broken engine cannot
  // keep this test waiting.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ServeOptions opt;
  opt.coord.job.kind = JobKind::kGrid;
  opt.coord.job.grid = small_spec();
  opt.port = ntohs(addr.sin_port);
  EXPECT_THROW((void)serve(opt), std::runtime_error);
  ::close(holder);
}

}  // namespace
}  // namespace asyncmac
