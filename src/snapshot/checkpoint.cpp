#include "snapshot/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::snapshot {

std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec,
                                            const sim::Engine& engine) {
  Writer w;
  save_run_spec(w, spec);
  engine.save_state(w);
  return w.take();
}

void write_checkpoint(const std::string& path, const RunSpec& spec,
                      const sim::Engine& engine) {
  const auto payload = encode_checkpoint(spec, engine);
  write_file(path, FileKind::kEngineRun, payload);
}

ResumedRun decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  ResumedRun run;
  run.spec = load_run_spec(r);
  try {
    run.engine = build_engine(run.spec);
  } catch (const std::invalid_argument& e) {
    // Unknown registry names mean the snapshot came from a build with
    // protocols/policies this binary does not ship.
    throw SnapshotError(ErrorKind::kMismatch,
                        std::string("cannot rebuild run: ") + e.what());
  }
  run.engine->load_state(r);
  r.expect_end();
  return run;
}

ResumedRun resume_checkpoint(const std::string& path) {
  return decode_checkpoint(read_file(path, FileKind::kEngineRun));
}

AutoSaver::AutoSaver(std::string dir, RunSpec spec, std::size_t retention)
    : dir_(std::move(dir)), spec_(std::move(spec)), retention_(retention) {
  AM_REQUIRE(retention_ >= 1, "checkpoint retention must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw SnapshotError(ErrorKind::kIo,
                        "cannot create checkpoint directory " + dir_ + ": " +
                            ec.message());
}

void AutoSaver::save(const sim::Engine& engine) {
  static auto& save_timer =
      telemetry::Registry::global().timer("checkpoint.save_ns");
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.snap",
                static_cast<unsigned long long>(counter_++));
  const std::string path = dir_ + "/" + name;
  {
    // Serialize, frame, CRC, write and rename.
    const telemetry::ScopeTimer scope(save_timer);
    write_checkpoint(path, spec_, engine);
  }
  files_.push_back(path);
  while (files_.size() > retention_) {
    std::remove(files_.front().c_str());
    files_.erase(files_.begin());
  }
}

}  // namespace asyncmac::snapshot
