#include "sweep/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "snapshot/io.h"
#include "telemetry/registry.h"

namespace asyncmac::sweep {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

void push_send(std::vector<Action>& out, std::uint64_t conn,
               std::vector<std::uint8_t> frame) {
  Action a;
  a.kind = Action::Kind::kSend;
  a.conn = conn;
  a.frame = std::move(frame);
  out.push_back(std::move(a));
}

void push_close(std::vector<Action>& out, std::uint64_t conn) {
  Action a;
  a.kind = Action::Kind::kClose;
  a.conn = conn;
  out.push_back(std::move(a));
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)),
      gen_(cfg_.job.fuzz.seed, cfg_.job.fuzz.protocols) {
  fingerprint_ = job_fingerprint(cfg_.job);
  if (cfg_.job.kind == JobKind::kGrid) {
    plan_ = analysis::plan_grid(cfg_.job.grid);
    records_.resize(plan_.cells.size());
    cell_done_.assign(plan_.cells.size(), 0);
    if (!cfg_.checkpoint_dir.empty()) {
      // As in analysis::run_grid, the directory is created up front, and
      // one that cannot be is a kIo before any unit is leased.
      std::error_code ec;
      std::filesystem::create_directories(cfg_.checkpoint_dir, ec);
      if (ec)
        throw SnapshotError(ErrorKind::kIo,
                            "cannot create checkpoint directory " +
                                cfg_.checkpoint_dir + ": " + ec.message());
      // Resume: a manifest from an earlier (possibly single-process) run
      // of the same grid pre-marks its cells done; a foreign manifest is
      // a kMismatch, exactly as in analysis::run_grid.
      analysis::load_grid_manifest(cfg_.checkpoint_dir,
                                   analysis::grid_fingerprint(cfg_.job.grid),
                                   cell_done_, records_);
    }
    units_.reserve(plan_.units.size());
    for (std::size_t i = 0; i < plan_.units.size(); ++i) {
      Unit u;
      u.first = plan_.units[i].first;
      u.count = plan_.units[i].count;
      u.id = work_unit_id(fingerprint_, i);
      const auto begin = cell_done_.begin() + static_cast<std::ptrdiff_t>(u.first);
      const bool done = std::all_of(
          begin, begin + static_cast<std::ptrdiff_t>(u.count),
          [](std::uint8_t d) { return d != 0; });
      if (done) {
        u.state = UnitState::kDone;
        ++units_done_;
      }
      units_.push_back(u);
    }
  } else {
    if (cfg_.job.fuzz.chunk == 0)
      throw std::invalid_argument("fuzz job chunk must be nonzero");
    verdicts_.resize(cfg_.job.fuzz.cases);
    const std::uint64_t cases = cfg_.job.fuzz.cases;
    const std::uint64_t chunk = cfg_.job.fuzz.chunk;
    for (std::uint64_t first = 0; first < cases; first += chunk) {
      Unit u;
      u.first = first;
      u.count = std::min(chunk, cases - first);
      u.id = work_unit_id(fingerprint_, units_.size());
      units_.push_back(u);
    }
  }
}

std::vector<Action> Coordinator::on_connect(std::uint64_t conn,
                                            std::uint64_t /*now_ms*/) {
  conns_.emplace(conn, Conn{});
  return {};
}

std::vector<Action> Coordinator::on_bytes(std::uint64_t conn,
                                          const std::uint8_t* data,
                                          std::size_t n, std::uint64_t now_ms) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return {};
  std::vector<Action> out;
  try {
    it->second.decoder.feed(data, n);
    // Every frame from a live holder refreshes its leases — a worker deep
    // in a long unit still proves liveness by heartbeating.
    refresh_leases(conn, now_ms);
    while (auto f = it->second.decoder.next()) {
      const Message msg = decode_message(*f);
      auto acts = handle(conn, msg, now_ms);
      out.insert(out.end(), std::make_move_iterator(acts.begin()),
                 std::make_move_iterator(acts.end()));
      // handle() may have severed the connection (protocol violation).
      it = conns_.find(conn);
      if (it == conns_.end()) break;
    }
  } catch (const SnapshotError&) {
    // Malformed bytes: the stream is unrecoverable. Sever, reassign.
    auto acts = sever(conn, "malformed frame");
    out.insert(out.end(), std::make_move_iterator(acts.begin()),
               std::make_move_iterator(acts.end()));
  }
  return out;
}

std::vector<Action> Coordinator::on_eof(std::uint64_t conn,
                                        std::uint64_t /*now_ms*/) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return {};
  bool death = !it->second.shutdown_sent;
  if (death) {
    try {
      it->second.decoder.at_eof();
    } catch (const SnapshotError&) {
      // Severed mid-frame: definitely not a clean goodbye.
    }
  }
  return drop_conn(conn, death);
}

std::vector<Action> Coordinator::on_tick(std::uint64_t now_ms) {
  for (auto& u : units_) {
    if (u.state == UnitState::kLeased && u.deadline_ms <= now_ms) {
      u.state = UnitState::kPending;
      u.holder = 0;
      telemetry::count("sweep.reassigns");
    }
  }
  return {};
}

std::vector<Action> Coordinator::handle(std::uint64_t conn, const Message& msg,
                                        std::uint64_t now_ms) {
  Conn& c = conns_.at(conn);
  std::vector<Action> out;
  if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
    (void)hello;
    if (c.worker_id != 0) return sever(conn, "duplicate hello");
    c.worker_id = ++next_worker_id_;
    WelcomeMsg w;
    w.worker_id = c.worker_id;
    w.heartbeat_ms = cfg_.heartbeat_ms;
    w.lease_timeout_ms = cfg_.lease_timeout_ms;
    w.job = cfg_.job;
    push_send(out, conn, to_frame(w));
    // A worker joining a finished sweep gets its dismissal in the same
    // flush — it must not have to survive another round trip against
    // the transport's drain deadline.
    if (done() && !c.shutdown_sent) {
      ShutdownMsg bye;
      bye.reason = "complete";
      c.shutdown_sent = true;
      push_send(out, conn, to_frame(bye));
    }
    return out;
  }
  if (c.worker_id == 0) return sever(conn, "message before hello");
  if (const auto* req = std::get_if<RequestWorkMsg>(&msg))
    return handle_request(conn, *req, now_ms);
  if (const auto* res = std::get_if<ResultMsg>(&msg))
    return handle_result(conn, *res, now_ms);
  if (std::get_if<HeartbeatMsg>(&msg)) {
    return out;  // liveness already recorded by refresh_leases
  }
  // Coordinator-bound streams carry no other types; anything else means
  // the peer is confused (or hostile).
  return sever(conn, "unexpected message type from worker");
}

std::vector<Action> Coordinator::handle_request(std::uint64_t conn,
                                                const RequestWorkMsg& /*m*/,
                                                std::uint64_t now_ms) {
  std::vector<Action> out;
  Conn& c = conns_.at(conn);
  if (done()) {
    ShutdownMsg bye;
    bye.reason = "complete";
    c.shutdown_sent = true;
    push_send(out, conn, to_frame(bye));
    return out;
  }
  // Lowest pending index first: deterministic, and keeps the merged
  // manifest's done-prefix dense for resumability.
  for (std::size_t i = 0; i < units_.size(); ++i) {
    Unit& u = units_[i];
    if (u.state != UnitState::kPending) continue;
    u.state = UnitState::kLeased;
    u.lease_id = ++next_lease_id_;
    u.holder = conn;
    u.deadline_ms = now_ms + cfg_.lease_timeout_ms;
    telemetry::count("sweep.leases");
    AssignMsg a;
    a.lease_id = u.lease_id;
    a.unit_index = i;
    a.unit_id = u.id;
    a.first = u.first;
    a.count = u.count;
    push_send(out, conn, to_frame(a));
    return out;
  }
  NoWorkMsg nw;
  nw.retry_ms = cfg_.nowork_retry_ms;
  push_send(out, conn, to_frame(nw));
  return out;
}

std::vector<Action> Coordinator::handle_result(std::uint64_t conn,
                                               const ResultMsg& m,
                                               std::uint64_t /*now_ms*/) {
  std::vector<Action> out;
  if (m.unit_index >= units_.size())
    return sever(conn, "result for out-of-range unit");
  Unit& u = units_[m.unit_index];
  if (m.unit_id != u.id)
    return sever(conn, "result unit id does not match this job");

  if (u.state == UnitState::kDone) {
    // Late duplicate (the unit was reassigned and finished elsewhere, or
    // the worker resent after a lost ack). Deterministic engines make the
    // payload identical, so merging again would be a no-op — skip it.
    telemetry::count("sweep.dup_results");
    ResultAckMsg ack;
    ack.unit_index = m.unit_index;
    ack.duplicate = true;
    push_send(out, conn, to_frame(ack));
    return out;
  }

  // Accept the payload whether or not this connection still holds the
  // lease: a late result from a revoked lease is still the right bytes
  // (at-least-once execution, exactly-once merge).
  bool ok = cfg_.job.kind == JobKind::kGrid ? merge_grid_result(u, m)
                                            : merge_fuzz_result(u, m);
  if (!ok) return sever(conn, "result payload failed validation");

  u.state = UnitState::kDone;
  u.holder = 0;
  ++units_done_;
  telemetry::count("sweep.results");
  if (cfg_.job.kind == JobKind::kGrid && !cfg_.checkpoint_dir.empty())
    write_manifest();

  ResultAckMsg ack;
  ack.unit_index = m.unit_index;
  ack.duplicate = false;
  push_send(out, conn, to_frame(ack));
  if (done()) broadcast_shutdown(out);
  return out;
}

bool Coordinator::merge_grid_result(const Unit& unit, const ResultMsg& m) {
  std::vector<analysis::ExperimentRecord> records;
  try {
    records = decode_grid_result(m.payload);
  } catch (const SnapshotError&) {
    return false;
  }
  if (records.size() != unit.count) return false;
  // The payload must describe exactly the cells of this unit — a worker
  // computing a different grid (or lying) is rejected, not merged.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const analysis::GridCell& cell = plan_.cells[unit.first + i];
    const analysis::ExperimentRecord& r = records[i];
    if (r.protocol != cell.protocol || r.n != cell.n ||
        r.bound_r != cell.bound_r || r.rho_pct != cell.rho_pct ||
        r.slot_policy != cell.slot_policy || r.seed != cell.seed)
      return false;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    records_[unit.first + i] = records[i];
    cell_done_[unit.first + i] = 1;
  }
  return true;
}

bool Coordinator::merge_fuzz_result(const Unit& unit, const ResultMsg& m) {
  std::vector<verify::CaseVerdict> verdicts;
  try {
    verdicts = decode_fuzz_result(m.payload);
  } catch (const SnapshotError&) {
    return false;
  }
  if (verdicts.size() != unit.count) return false;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const std::uint64_t index = unit.first + i;
    if (verdicts[i].index != index ||
        verdicts[i].case_seed != gen_.case_seed(index))
      return false;
  }
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    verdicts_[unit.first + i] = verdicts[i];
  return true;
}

void Coordinator::refresh_leases(std::uint64_t conn, std::uint64_t now_ms) {
  for (auto& u : units_)
    if (u.state == UnitState::kLeased && u.holder == conn)
      u.deadline_ms = now_ms + cfg_.lease_timeout_ms;
}

void Coordinator::revoke_leases(std::uint64_t conn) {
  for (auto& u : units_) {
    if (u.state == UnitState::kLeased && u.holder == conn) {
      u.state = UnitState::kPending;
      u.holder = 0;
      telemetry::count("sweep.reassigns");
    }
  }
}

std::vector<Action> Coordinator::sever(std::uint64_t conn,
                                       const char* /*why*/) {
  telemetry::count("sweep.protocol_errors");
  return drop_conn(conn, /*death=*/true);
}

std::vector<Action> Coordinator::drop_conn(std::uint64_t conn, bool death) {
  std::vector<Action> out;
  auto it = conns_.find(conn);
  if (it == conns_.end()) return out;
  if (death && it->second.worker_id != 0)
    telemetry::count("sweep.worker_deaths");
  revoke_leases(conn);
  conns_.erase(it);
  push_close(out, conn);
  return out;
}

void Coordinator::broadcast_shutdown(std::vector<Action>& out) {
  ShutdownMsg bye;
  bye.reason = "complete";
  const std::vector<std::uint8_t> frame = to_frame(bye);
  // Pre-Hello connections are included: a worker that connected just as
  // the sweep finished is dismissed cleanly (Shutdown is valid before
  // Welcome on the worker side) instead of seeing a dead socket.
  for (auto& [conn, c] : conns_) {
    if (c.shutdown_sent) continue;
    c.shutdown_sent = true;
    push_send(out, conn, frame);
  }
}

void Coordinator::write_manifest() const {
  try {
    analysis::write_grid_manifest(cfg_.checkpoint_dir,
                                  analysis::grid_fingerprint(cfg_.job.grid),
                                  cell_done_, records_);
  } catch (const SnapshotError& e) {
    // The coordinator's own failure: as a SnapshotError it would reach
    // on_bytes' malformed-frame handler, which blames and severs the
    // worker whose result was just merged.
    throw std::runtime_error(std::string("grid manifest: ") + e.what());
  }
}

}  // namespace asyncmac::sweep
