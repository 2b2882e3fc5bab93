#include "analysis/experiment.h"

#include <filesystem>
#include <mutex>

#include "analysis/grid.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace asyncmac::analysis {

std::vector<ExperimentRecord> run_grid(const ExperimentSpec& spec) {
  // Enumerate the cross product up front (in the documented record order),
  // then run the units on a pool: each unit computes its distinct run
  // (an independent deterministic engine) and writes its cells' records into
  // pre-sized slots, so the result is byte-identical to the serial sweep
  // for every jobs value.
  // The same plan/run/manifest pieces back the distributed sweep service
  // (analysis/grid.h, src/sweep/).
  const GridPlan plan = plan_grid(spec);
  std::vector<ExperimentRecord> records(plan.cells.size());

  // Checkpointing: `skip` is an immutable pre-run snapshot of the
  // manifest (safe to read from every worker); `done` and the manifest
  // rewrite are guarded by one mutex, and a cell is marked done only
  // after its record is fully written (the mutex orders that store
  // against the manifest serializer's read).
  const bool checkpointing = !spec.checkpoint_dir.empty();
  std::vector<std::uint8_t> done(plan.cells.size(), 0);
  std::uint32_t fingerprint = 0;
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(spec.checkpoint_dir, ec);
    if (ec)
      throw snapshot::SnapshotError(
          snapshot::ErrorKind::kIo, "cannot create checkpoint directory " +
                                        spec.checkpoint_dir + ": " +
                                        ec.message());
    fingerprint = grid_fingerprint(spec);
    load_grid_manifest(spec.checkpoint_dir, fingerprint, done, records);
  }
  const std::vector<std::uint8_t> skip = done;
  std::mutex manifest_mutex;

  telemetry::emit("grid.start",
                  {{"cells", static_cast<std::uint64_t>(plan.cells.size())},
                   {"jobs", static_cast<std::int64_t>(spec.jobs)},
                   {"horizon_units", static_cast<std::int64_t>(
                                         spec.horizon_units)}});
  util::parallel_for(spec.jobs, plan.units.size(), [&](std::size_t ui) {
    // Cells already completed by a resumed manifest drop out of the unit;
    // the rest are its run (the remaining replicas of a partly completed
    // seed class are still one run).
    std::vector<std::size_t> todo;
    for (std::size_t i = plan.units[ui].first;
         i < plan.units[ui].first + plan.units[ui].count; ++i)
      if (!skip[i]) todo.push_back(i);
    if (todo.empty()) return;

    static auto& cell_count =
        telemetry::Registry::global().counter("analysis.grid_cells");
    static auto& cell_timer =
        telemetry::Registry::global().timer("analysis.grid_cell_ns");
    const telemetry::ScopeTimer scope(cell_timer);

    const std::vector<ExperimentRecord> out =
        run_grid_cells(spec, plan, todo);
    for (std::size_t k = 0; k < todo.size(); ++k)
      records[todo[k]] = out[k];

    if (checkpointing) {
      const std::lock_guard<std::mutex> lock(manifest_mutex);
      for (std::size_t i : todo) done[i] = 1;
      write_grid_manifest(spec.checkpoint_dir, fingerprint, done, records);
    }
    cell_count.add(todo.size());
  });
  telemetry::emit("grid.done",
                  {{"cells", static_cast<std::uint64_t>(plan.cells.size())}});
  return records;
}

std::string to_table(const std::vector<ExperimentRecord>& records) {
  util::Table t({"protocol", "n", "R", "rho%", "policy", "seed",
                 "delivered frac", "max queue (units)", "collisions",
                 "control", "p99 latency"});
  for (const auto& r : records)
    t.row(r.protocol, r.n, r.bound_r, r.rho_pct, r.slot_policy, r.seed,
          r.delivered_fraction, r.max_queue_cost_units, r.collisions,
          r.control_msgs, r.p99_latency_units);
  return t.to_string();
}

bool write_csv(const std::vector<ExperimentRecord>& records,
               const std::string& path, bool energy_columns) {
  std::vector<std::string> header{
      "protocol", "n", "R", "rho_pct", "policy", "seed", "injected",
      "delivered", "queued", "max_queue_units", "final_queue_units",
      "collisions", "control_msgs", "p99_latency_units"};
  if (energy_columns) {
    header.push_back("energy_total");
    header.push_back("energy_peak_station");
    header.push_back("energy_per_delivery");
  }
  util::CsvWriter csv(path, header);
  for (const auto& r : records) {
    if (energy_columns) {
      csv.row(r.protocol, r.n, r.bound_r, r.rho_pct, r.slot_policy, r.seed,
              r.injected, r.delivered, r.queued, r.max_queue_cost_units,
              r.final_queue_cost_units, r.collisions, r.control_msgs,
              r.p99_latency_units, r.energy_total, r.energy_peak_station,
              r.energy_per_delivery);
    } else {
      csv.row(r.protocol, r.n, r.bound_r, r.rho_pct, r.slot_policy, r.seed,
              r.injected, r.delivered, r.queued, r.max_queue_cost_units,
              r.final_queue_cost_units, r.collisions, r.control_msgs,
              r.p99_latency_units);
    }
  }
  return csv.ok();
}

}  // namespace asyncmac::analysis
