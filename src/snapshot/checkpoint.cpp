#include "snapshot/checkpoint.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::snapshot {

namespace {

/// The AutoSaver file in `dir` with the highest counter, {counter, path};
/// a name other than ckpt-<decimal counter>.snap is not an AutoSaver file.
std::optional<std::pair<std::uint64_t, std::string>> newest_in(
    const std::string& dir) {
  constexpr std::string_view kPrefix = "ckpt-", kSuffix = ".snap";
  std::optional<std::pair<std::uint64_t, std::string>> best;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const char* end = name.data() + name.size() - kSuffix.size();
    std::uint64_t counter = 0;
    const auto [at, err] =
        std::from_chars(name.data() + kPrefix.size(), end, counter);
    if (err == std::errc() && at == end && (!best || counter > best->first))
      best.emplace(counter, (std::filesystem::path(dir) / name).string());
  }
  return best;
}

}  // namespace

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

std::string newest_checkpoint(const std::string& dir) {
  const auto newest = newest_in(dir);
  return newest ? newest->second : std::string();
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
  if (const auto newest = newest_in(dir_)) {
    if (newest->first == UINT64_MAX)
      throw SnapshotError(ErrorKind::kIo, "checkpoint counter exhausted in " +
                                              dir_);
    counter_ = newest->first + 1;
  }
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
