#include "telemetry/summary.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace asyncmac::telemetry {

namespace {

using util::JsonValue;

void fold_snapshot(const JsonValue& line, JsonlSummary& summary) {
  summary.counters.clear();
  summary.gauges.clear();
  summary.timers.clear();
  if (const JsonValue* counters = line.find("counters"))
    for (const auto& [name, value] : counters->object)
      summary.counters.emplace_back(name, value.as_u64());
  if (const JsonValue* gauges = line.find("gauges"))
    for (const auto& [name, value] : gauges->object)
      summary.gauges.emplace_back(name, value.as_u64());
  if (const JsonValue* timers = line.find("timers"))
    for (const auto& [name, value] : timers->object) {
      Snapshot::TimerStats stats;
      if (const JsonValue* f = value.find("count")) stats.count = f->as_u64();
      if (const JsonValue* f = value.find("min_ns")) stats.min_ns = f->as_i64();
      if (const JsonValue* f = value.find("mean_ns")) stats.mean_ns = f->number;
      if (const JsonValue* f = value.find("p50_ns")) stats.p50_ns = f->as_i64();
      if (const JsonValue* f = value.find("p99_ns")) stats.p99_ns = f->as_i64();
      if (const JsonValue* f = value.find("max_ns")) stats.max_ns = f->as_i64();
      summary.timers.emplace_back(name, stats);
    }
}

void fold_line(const JsonValue& v, JsonlSummary& summary) {
  const JsonValue* type = v.find("type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString)
    throw std::invalid_argument("not a typed telemetry object");
  ++summary.lines;
  if (const JsonValue* t_ms = v.find("t_ms"))
    summary.span_ms = std::max(summary.span_ms, t_ms->as_i64());
  if (type->string == "meta") {
    ++summary.meta_lines;
  } else if (type->string == "snapshot") {
    ++summary.snapshots;
    fold_snapshot(v, summary);
  } else if (type->string == "event") {
    ++summary.events;
    const JsonValue* name = v.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString)
      throw std::invalid_argument("event without a name");
    ++summary.event_counts[name->string];
  } else {
    throw std::invalid_argument("unknown type \"" + type->string + "\"");
  }
}

}  // namespace

JsonlSummary summarize_stream(std::istream& in) {
  JsonlSummary summary;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      fold_line(util::parse_json(line), summary);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("line " + std::to_string(line_no) + ": " +
                                  e.what());
    }
  }
  return summary;
}

std::string render_summary(const JsonlSummary& summary, std::size_t top) {
  std::ostringstream os;
  os << "telemetry: " << summary.lines << " lines (" << summary.meta_lines
     << " meta, " << summary.snapshots << " snapshots, " << summary.events
     << " events), span "
     << static_cast<double>(summary.span_ms) / 1000.0 << " s\n";

  auto nonzero = summary.counters;
  nonzero.erase(std::remove_if(nonzero.begin(), nonzero.end(),
                               [](const auto& kv) { return kv.second == 0; }),
                nonzero.end());
  std::stable_sort(nonzero.begin(), nonzero.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (top != 0 && nonzero.size() > top) nonzero.resize(top);
  os << "counters (last snapshot, top " << nonzero.size() << "):\n";
  for (const auto& [name, value] : nonzero)
    os << "  " << name << " = " << value << "\n";

  bool any_gauge = false;
  for (const auto& [name, value] : summary.gauges) {
    if (value == 0) continue;
    if (!any_gauge) os << "gauges (high-water marks):\n";
    any_gauge = true;
    os << "  " << name << " = " << value << "\n";
  }

  bool any_timer = false;
  for (const auto& [name, t] : summary.timers) {
    if (t.count == 0) continue;
    if (!any_timer) os << "timers (ns):\n";
    any_timer = true;
    os << "  " << name << "  n=" << t.count << " min=" << t.min_ns
       << " mean=" << t.mean_ns << " p50=" << t.p50_ns << " p99=" << t.p99_ns
       << " max=" << t.max_ns << "\n";
  }

  if (!summary.event_counts.empty()) {
    os << "events:\n";
    for (const auto& [name, n] : summary.event_counts)
      os << "  " << name << " x " << n << "\n";
  }
  return os.str();
}

}  // namespace asyncmac::telemetry
