#include "telemetry/jsonl.h"

#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace asyncmac::telemetry {

namespace {

std::string field_value_json(const FieldValue& v) {
  std::ostringstream os;
  if (std::holds_alternative<std::int64_t>(v)) {
    os << std::get<std::int64_t>(v);
  } else if (std::holds_alternative<std::uint64_t>(v)) {
    os << std::get<std::uint64_t>(v);
  } else if (std::holds_alternative<double>(v)) {
    // JSON has no NaN/Inf; clamp to null for robustness.
    const double d = std::get<double>(v);
    if (d != d) {
      os << "null";
    } else {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      os << buf;
    }
  } else if (std::holds_alternative<bool>(v)) {
    os << (std::get<bool>(v) ? "true" : "false");
  } else {
    os << '"' << util::json_escape(std::get<std::string>(v)) << '"';
  }
  return os.str();
}

std::string timer_stats_json(const Snapshot::TimerStats& t) {
  std::ostringstream os;
  char mean[64];
  std::snprintf(mean, sizeof mean, "%.17g", t.mean_ns);
  os << "{\"count\":" << t.count << ",\"min_ns\":" << t.min_ns
     << ",\"mean_ns\":" << mean << ",\"p50_ns\":" << t.p50_ns
     << ",\"p99_ns\":" << t.p99_ns << ",\"max_ns\":" << t.max_ns << "}";
  return os.str();
}

}  // namespace

JsonlExporter::JsonlExporter(Options options)
    : out_(options.path),
      ok_(static_cast<bool>(out_)),
      start_(std::chrono::steady_clock::now()),
      period_(options.snapshot_period) {
  if (!ok_) return;
  const auto unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::ostringstream os;
  os << "{\"type\":\"meta\",\"version\":1,\"start_unix_ms\":" << unix_ms
     << "}";
  write_line(os.str());
  if (period_.count() > 0)
    flusher_ = std::thread([this] { flusher_loop(); });
}

JsonlExporter::~JsonlExporter() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stopping_ = true;
    }
    stop_cv_.notify_all();
    flusher_.join();
  }
  if (ok_) snapshot_now("teardown");
}

std::int64_t JsonlExporter::elapsed_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void JsonlExporter::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(out_mu_);
  out_ << line << '\n';
  out_.flush();  // every line lands immediately: the file is tailable
}

void JsonlExporter::event(const std::string& name, const Fields& fields) {
  if (!ok_) return;
  std::ostringstream os;
  os << "{\"type\":\"event\",\"name\":\"" << util::json_escape(name)
     << "\",\"t_ms\":" << elapsed_ms() << ",\"fields\":{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) os << ',';
    first = false;
    os << '"' << util::json_escape(key) << "\":" << field_value_json(value);
  }
  os << "}}";
  write_line(os.str());
}

void JsonlExporter::snapshot_now(const std::string& reason) {
  if (!ok_) return;
  const Snapshot snap = Registry::global().snapshot();
  std::ostringstream os;
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    seq = snapshot_seq_++;
  }
  os << "{\"type\":\"snapshot\",\"seq\":" << seq
     << ",\"t_ms\":" << elapsed_ms() << ",\"reason\":\""
     << util::json_escape(reason) << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << util::json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << util::json_escape(name) << "\":" << value;
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& [name, stats] : snap.timers) {
    if (!first) os << ',';
    first = false;
    os << '"' << util::json_escape(name) << "\":" << timer_stats_json(stats);
  }
  os << "}}";
  write_line(os.str());
}

void JsonlExporter::flusher_loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, period_, [this] { return stopping_; }))
      break;
    lock.unlock();
    snapshot_now("periodic");
    lock.lock();
  }
}

namespace {
std::mutex g_exporter_mu;
std::unique_ptr<JsonlExporter> g_exporter;
}  // namespace

void install_exporter(std::unique_ptr<JsonlExporter> new_exporter) {
  std::unique_ptr<JsonlExporter> old;
  {
    std::lock_guard<std::mutex> lock(g_exporter_mu);
    old = std::move(g_exporter);
    g_exporter = std::move(new_exporter);
  }
  // `old` finalizes (final snapshot + join) outside the lock.
}

void uninstall_exporter() { install_exporter(nullptr); }

JsonlExporter* exporter() noexcept { return g_exporter.get(); }

void emit(const std::string& name, const Fields& fields) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_exporter_mu);
  if (g_exporter) g_exporter->event(name, fields);
}

bool enable_to_file(const std::string& path) {
  auto exp = std::make_unique<JsonlExporter>(JsonlExporter::Options{path});
  if (!exp->ok()) return false;
  set_enabled(true);
  install_exporter(std::move(exp));
  return true;
}

}  // namespace asyncmac::telemetry
