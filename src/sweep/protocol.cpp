#include "sweep/protocol.h"

#include "analysis/grid.h"
#include "snapshot/state.h"
#include "util/check.h"

namespace asyncmac::sweep {

namespace {

using snapshot::ErrorKind;
using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

/// SplitMix64 finalizer — the verify::ScenarioGen idiom, reproduced here
/// so a unit id is a documented, stable function of (fingerprint, index).
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename S, typename Job>
void job_fields(S& s, Job& job) {
  auto kind = static_cast<std::uint8_t>(job.kind);
  field(s, kind);
  if constexpr (snapshot::kLoading<S>) {
    if (kind != static_cast<std::uint8_t>(JobKind::kGrid) &&
        kind != static_cast<std::uint8_t>(JobKind::kFuzz))
      throw SnapshotError(ErrorKind::kCorrupt, "unknown sweep job kind");
    job.kind = static_cast<JobKind>(kind);
  }
  if (job.kind == JobKind::kGrid) {
    if constexpr (snapshot::kLoading<S>)
      job.grid = analysis::load_grid_spec(s);
    else
      analysis::save_grid_spec(s, job.grid);
  } else {
    field(s, job.fuzz.seed);
    field(s, job.fuzz.cases);
    field(s, job.fuzz.chunk);
    if constexpr (snapshot::kLoading<S>)
      if (job.fuzz.chunk == 0)
        throw SnapshotError(ErrorKind::kCorrupt, "fuzz chunk must be nonzero");
    elements(s, job.fuzz.protocols, 8);
  }
}

}  // namespace

std::uint32_t job_fingerprint(const SweepJob& job) {
  if (job.kind == JobKind::kGrid) return analysis::grid_fingerprint(job.grid);
  Writer w;
  w.u8(static_cast<std::uint8_t>(job.kind));
  w.u64(job.fuzz.seed);
  w.u64(job.fuzz.cases);
  w.u64(job.fuzz.chunk);
  for (const auto& p : job.fuzz.protocols) w.str(p);
  return snapshot::crc32(w.buffer().data(), w.buffer().size());
}

std::uint64_t work_unit_id(std::uint32_t fingerprint, std::uint64_t index) {
  std::uint64_t id = mix64(mix64(fingerprint) ^ index);
  if (id == 0) id = 1;  // reserve 0 as "no unit"
  return id;
}

std::vector<std::uint8_t> to_frame(const HelloMsg& m) {
  Writer w = snapshot::frame_writer();
  w.str(m.worker_name);
  return seal_frame(MsgType::kHello, std::move(w));
}

std::vector<std::uint8_t> to_frame(const WelcomeMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u32(m.worker_id);
  w.u64(m.heartbeat_ms);
  w.u64(m.lease_timeout_ms);
  job_fields(w, m.job);
  return seal_frame(MsgType::kWelcome, std::move(w));
}

std::vector<std::uint8_t> to_frame(const RequestWorkMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u32(m.worker_id);
  return seal_frame(MsgType::kRequestWork, std::move(w));
}

std::vector<std::uint8_t> to_frame(const AssignMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u64(m.lease_id);
  w.u64(m.unit_index);
  w.u64(m.unit_id);
  w.u64(m.first);
  w.u64(m.count);
  return seal_frame(MsgType::kAssign, std::move(w));
}

std::vector<std::uint8_t> to_frame(const ResultMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u32(m.worker_id);
  w.u64(m.lease_id);
  w.u64(m.unit_index);
  w.u64(m.unit_id);
  w.u64(m.payload.size());
  w.bytes(m.payload.data(), m.payload.size());
  return seal_frame(MsgType::kResult, std::move(w));
}

std::vector<std::uint8_t> to_frame(const ResultAckMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u64(m.unit_index);
  w.boolean(m.duplicate);
  return seal_frame(MsgType::kResultAck, std::move(w));
}

std::vector<std::uint8_t> to_frame(const HeartbeatMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u32(m.worker_id);
  return seal_frame(MsgType::kHeartbeat, std::move(w));
}

std::vector<std::uint8_t> to_frame(const NoWorkMsg& m) {
  Writer w = snapshot::frame_writer();
  w.u64(m.retry_ms);
  return seal_frame(MsgType::kNoWork, std::move(w));
}

std::vector<std::uint8_t> to_frame(const ShutdownMsg& m) {
  Writer w = snapshot::frame_writer();
  w.str(m.reason);
  return seal_frame(MsgType::kShutdown, std::move(w));
}

Message decode_message(const Frame& f) {
  Reader r(f.payload);
  Message out;
  switch (f.type) {
    case MsgType::kHello: {
      HelloMsg m;
      m.worker_name = r.str();
      out = std::move(m);
      break;
    }
    case MsgType::kWelcome: {
      WelcomeMsg m;
      m.worker_id = r.u32();
      m.heartbeat_ms = r.u64();
      m.lease_timeout_ms = r.u64();
      job_fields(r, m.job);
      out = std::move(m);
      break;
    }
    case MsgType::kRequestWork: {
      RequestWorkMsg m;
      m.worker_id = r.u32();
      out = m;
      break;
    }
    case MsgType::kAssign: {
      AssignMsg m;
      m.lease_id = r.u64();
      m.unit_index = r.u64();
      m.unit_id = r.u64();
      m.first = r.u64();
      m.count = r.u64();
      out = m;
      break;
    }
    case MsgType::kResult: {
      ResultMsg m;
      m.worker_id = r.u32();
      m.lease_id = r.u64();
      m.unit_index = r.u64();
      m.unit_id = r.u64();
      const std::uint64_t len = r.u64();
      if (len > kMaxFramePayload)
        throw SnapshotError(ErrorKind::kCorrupt,
                            "result payload length is oversized");
      m.payload.resize(static_cast<std::size_t>(len));
      r.bytes(m.payload.data(), m.payload.size());
      out = std::move(m);
      break;
    }
    case MsgType::kResultAck: {
      ResultAckMsg m;
      m.unit_index = r.u64();
      m.duplicate = r.boolean();
      out = m;
      break;
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg m;
      m.worker_id = r.u32();
      out = m;
      break;
    }
    case MsgType::kNoWork: {
      NoWorkMsg m;
      m.retry_ms = r.u64();
      out = m;
      break;
    }
    case MsgType::kShutdown: {
      ShutdownMsg m;
      m.reason = r.str();
      out = std::move(m);
      break;
    }
  }
  r.expect_end();
  return out;
}

std::vector<std::uint8_t> encode_grid_result(
    const std::vector<analysis::ExperimentRecord>& records) {
  Writer w;
  w.u64(records.size());
  for (const auto& rec : records) analysis::save_record(w, rec);
  return w.take();
}

std::vector<analysis::ExperimentRecord> decode_grid_result(
    const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  const std::uint64_t count = r.count(32);  // a record is far larger
  std::vector<analysis::ExperimentRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i)
    records.push_back(analysis::load_record(r));
  r.expect_end();
  return records;
}

std::vector<std::uint8_t> encode_fuzz_result(
    const std::vector<verify::CaseVerdict>& verdicts) {
  Writer w;
  w.u64(verdicts.size());
  for (const auto& v : verdicts) {
    w.u64(v.index);
    w.u64(v.case_seed);
    w.boolean(v.ok);
    w.str(v.violation);
  }
  return w.take();
}

std::vector<verify::CaseVerdict> decode_fuzz_result(
    const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  const std::uint64_t count = r.count(18);
  std::vector<verify::CaseVerdict> verdicts;
  verdicts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    verify::CaseVerdict v;
    v.index = r.u64();
    v.case_seed = r.u64();
    v.ok = r.boolean();
    v.violation = r.str();
    verdicts.push_back(std::move(v));
  }
  r.expect_end();
  return verdicts;
}

}  // namespace asyncmac::sweep
