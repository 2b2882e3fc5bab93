// Tests for the protocol registry and the declarative experiment grid
// runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "analysis/experiment.h"
#include "analysis/registry.h"
#include "analysis/run_spec.h"

namespace asyncmac::analysis {
namespace {

TEST(Registry, AllNamesConstructible) {
  const auto names = protocol_names();
  EXPECT_GE(names.size(), 11u);
  for (const auto& name : names) {
    auto p = make_protocol(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_FALSE(p->name().empty());
    // Every registered protocol must be cloneable (lower-bound driver
    // requirement).
    EXPECT_NE(p->clone(), nullptr) << name;
  }
}

// The engine's dense loop steps CA-ARRoW's automaton in place and finds
// it through this accessor alone. Without it every byte would stay the
// same and only the loop's speed would show the loss.
TEST(Registry, OnlyCaArrowExposesItsAutomaton) {
  const auto names = protocol_names();
  ASSERT_NE(std::find(names.begin(), names.end(), "ca-arrow"), names.end());
  for (const auto& name : names)
    EXPECT_EQ(make_protocol(name)->ca_arrow_automaton() != nullptr,
              name == "ca-arrow")
        << name;
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_protocol("csma-cd"), std::invalid_argument);
}

// tree-resolution splits contenders on feedback every station hears at
// once, so materials() builds it only where every station's slot
// boundaries coincide: n = 1, R = 1, or one fixed length for all (sync,
// max). Every other protocol runs on any schedule.
TEST(Registry, SynchronousOnlyProtocolIsRefusedOnAsynchronousSlots) {
  struct Shape {
    const char* policy;
    std::uint32_t n, r;
    bool allowed;
  };
  const Shape shapes[] = {
      {"sync", 5, 3, true},        {"max", 5, 4, true},
      {"perstation", 1, 4, true},  {"random", 1, 3, true},
      {"perstation", 5, 1, true},  {"stretch-tx", 8, 1, true},
      {"perstation", 5, 2, false}, {"perstation", 2, 4, false},
      {"random", 5, 2, false},     {"cyclic", 3, 4, false},
      {"stretch-tx", 2, 3, false},
  };
  for (const auto& name : protocol_names()) {
    EXPECT_EQ(protocol_needs_synchronous_slots(name),
              name == "tree-resolution")
        << name;
    for (const Shape& s : shapes) {
      RunSpec spec;
      spec.protocol = name;
      spec.n = s.n;
      spec.bound_r = s.r;
      spec.slot_policy = s.policy;
      const std::string what = name + " " + s.policy + " n=" +
                               std::to_string(s.n) + " R=" +
                               std::to_string(s.r);
      if (s.allowed || name != "tree-resolution")
        EXPECT_NO_THROW((void)materials(spec)) << what;
      else
        EXPECT_THROW((void)materials(spec), std::invalid_argument) << what;
    }
  }
}

TEST(Registry, MakeProtocolsCount) {
  const auto ps = make_protocols("ca-arrow", 5);
  EXPECT_EQ(ps.size(), 5u);
  for (const auto& p : ps) EXPECT_EQ(p->name(), "CA-ARRoW");
}

TEST(Experiment, GridSizeIsCrossProduct) {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "rrw"};
  spec.station_counts = {2, 4};
  spec.bounds_r = {1};
  spec.rho_percents = {30, 60};
  spec.slot_policies = {"sync"};
  spec.horizon_units = 3000;
  spec.seeds = 2;
  const auto records = run_grid(spec);
  EXPECT_EQ(records.size(), 2u * 2 * 1 * 2 * 1 * 2);
}

TEST(Experiment, RecordsCarryParametersAndResults) {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow"};
  spec.station_counts = {3};
  spec.bounds_r = {2};
  spec.rho_percents = {50};
  spec.slot_policies = {"perstation"};
  spec.horizon_units = 20000;
  const auto records = run_grid(spec);
  ASSERT_EQ(records.size(), 1u);
  const auto& r = records[0];
  EXPECT_EQ(r.protocol, "ca-arrow");
  EXPECT_EQ(r.n, 3u);
  EXPECT_EQ(r.bound_r, 2u);
  EXPECT_EQ(r.rho_pct, 50);
  EXPECT_GT(r.delivered, 1000u);
  EXPECT_EQ(r.collisions, 0u);
  EXPECT_GT(r.delivered_fraction, 0.95);
  EXPECT_GT(r.p99_latency_units, 0.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentSpec spec;
  spec.protocols = {"ao-arrow"};
  spec.station_counts = {2};
  spec.bounds_r = {2};
  spec.rho_percents = {40};
  spec.slot_policies = {"random"};
  spec.horizon_units = 10000;
  const auto a = run_grid(spec);
  const auto b = run_grid(spec);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].delivered, b[0].delivered);
  EXPECT_EQ(a[0].max_queue_cost_units, b[0].max_queue_cost_units);
}

TEST(Experiment, TableAndCsvRender) {
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow"};
  spec.station_counts = {2};
  spec.bounds_r = {1};
  spec.rho_percents = {50};
  spec.slot_policies = {"sync"};
  spec.horizon_units = 3000;
  const auto records = run_grid(spec);
  const std::string table = to_table(records);
  EXPECT_NE(table.find("ca-arrow"), std::string::npos);
  EXPECT_NE(table.find("max queue"), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "asyncmac_experiment_test.csv";
  write_csv(records, path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("max_queue_units"), std::string::npos);
  std::string row;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, row)));
  std::remove(path.c_str());
}

TEST(Experiment, ParallelJobsMatchSerialFieldByField) {
  // The tentpole guarantee of the parallel runner: records (values AND
  // order) are byte-identical for every jobs value, because each cell is
  // an independent deterministic Engine writing into a pre-sized slot.
  ExperimentSpec spec;
  spec.protocols = {"ca-arrow", "rrw"};
  spec.station_counts = {2, 3};
  spec.bounds_r = {2};
  spec.rho_percents = {40, 60};
  spec.slot_policies = {"perstation"};
  spec.horizon_units = 2000;
  spec.seeds = 2;  // 2 x 2 x 1 x 2 x 1 x 2 = 16 cells
  spec.jobs = 1;
  const auto serial = run_grid(spec);
  spec.jobs = 4;
  const auto parallel = run_grid(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 16u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.protocol, b.protocol) << i;
    EXPECT_EQ(a.n, b.n) << i;
    EXPECT_EQ(a.bound_r, b.bound_r) << i;
    EXPECT_EQ(a.rho_pct, b.rho_pct) << i;
    EXPECT_EQ(a.slot_policy, b.slot_policy) << i;
    EXPECT_EQ(a.seed, b.seed) << i;
    EXPECT_EQ(a.injected, b.injected) << i;
    EXPECT_EQ(a.delivered, b.delivered) << i;
    EXPECT_EQ(a.queued, b.queued) << i;
    EXPECT_EQ(a.max_queue_cost_units, b.max_queue_cost_units) << i;
    EXPECT_EQ(a.final_queue_cost_units, b.final_queue_cost_units) << i;
    EXPECT_EQ(a.collisions, b.collisions) << i;
    EXPECT_EQ(a.control_msgs, b.control_msgs) << i;
    EXPECT_EQ(a.delivered_fraction, b.delivered_fraction) << i;
    EXPECT_EQ(a.p99_latency_units, b.p99_latency_units) << i;
  }
}

TEST(Experiment, SameSeedProducesIdenticalCsvAcrossJobs) {
  ExperimentSpec spec;
  spec.protocols = {"ao-arrow"};
  spec.station_counts = {2, 4};
  spec.bounds_r = {2};
  spec.rho_percents = {50};
  spec.slot_policies = {"random"};
  spec.horizon_units = 2000;
  spec.seeds = 2;

  auto csv_bytes = [&](unsigned jobs, const std::string& tag) {
    spec.jobs = jobs;
    const auto records = run_grid(spec);
    const std::string path =
        ::testing::TempDir() + "asyncmac_grid_" + tag + ".csv";
    write_csv(records, path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
  };
  const std::string serial = csv_bytes(1, "serial");
  const std::string parallel = csv_bytes(8, "parallel");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Experiment, RejectsEmptyDimensions) {
  ExperimentSpec spec;
  spec.protocols.clear();
  EXPECT_THROW(run_grid(spec), std::invalid_argument);
}

TEST(Experiment, CrossProtocolContrastMatchesTableOne) {
  // A miniature Table-I rendered through the grid runner: at R = 2 the
  // ARRoW protocols deliver nearly everything while RRW collapses.
  ExperimentSpec spec;
  spec.protocols = {"ao-arrow", "ca-arrow", "rrw"};
  spec.station_counts = {4};
  spec.bounds_r = {2};
  spec.rho_percents = {50};
  spec.slot_policies = {"perstation"};
  spec.horizon_units = 50000;
  const auto records = run_grid(spec);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[0].delivered_fraction, 0.95);  // ao-arrow
  EXPECT_GT(records[1].delivered_fraction, 0.95);  // ca-arrow
  EXPECT_LT(records[2].delivered_fraction, 0.5);   // rrw under asynchrony
}

}  // namespace
}  // namespace asyncmac::analysis
