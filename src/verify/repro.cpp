#include "verify/repro.h"

#include <sstream>
#include <stdexcept>

#include "trace/serialize.h"
#include "util/check.h"
#include "util/json.h"
#include "verify/campaign.h"

namespace asyncmac::verify {

namespace {

using util::JsonValue;

// Repro files hold only objects, strings and integers (the writer emits
// nothing else), so any other kind is malformed, even under a key the
// schema does not read.
void require_repro_kinds(const JsonValue& v) {
  if (v.kind == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : v.object) require_repro_kinds(value);
    return;
  }
  AM_REQUIRE(v.kind == JsonValue::Kind::kString || v.integral,
             "repro JSON holds only objects, strings and 64-bit integers");
}

const JsonValue& member(const JsonValue& obj, const std::string& key) {
  AM_REQUIRE(obj.kind == JsonValue::Kind::kObject, "expected JSON object");
  const JsonValue* v = obj.find(key);
  AM_REQUIRE(v != nullptr, "missing repro field: " + key);
  return *v;
}

const std::string& get_string(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  AM_REQUIRE(v.kind == JsonValue::Kind::kString,
             "repro field must be a string: " + key);
  return v.string;
}

std::int64_t get_i64(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  try {
    return v.as_i64();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("repro field must be an int64 number: " + key);
  }
}

std::uint64_t get_u64(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  try {
    return v.as_u64();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("repro field must be a non-negative number: " +
                                key);
  }
}

std::uint32_t get_u32(const JsonValue& obj, const std::string& key) {
  const std::uint64_t v = get_u64(obj, key);
  AM_REQUIRE(v <= UINT32_MAX, "repro field out of range: " + key);
  return static_cast<std::uint32_t>(v);
}

// Optional fields added after version 1 shipped: absent in old repro
// files, which must keep parsing (they predate the restrained channel
// and energy metering, so the defaults reproduce their runs exactly).
std::uint64_t get_u64_or(const JsonValue& obj, const std::string& key,
                         std::uint64_t fallback) {
  if (obj.find(key) == nullptr) return fallback;
  return get_u64(obj, key);
}

}  // namespace

std::string to_json(const Repro& repro) {
  const Scenario& s = repro.scenario;
  const adversary::InjectorSpec& inj = s.injector;
  std::ostringstream os;
  os << "{\n";
  os << "  \"format\": \"asyncmac-fuzz-repro\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"violation\": \"" << util::json_escape(repro.violation) << "\",\n";
  os << "  \"scenario\": {\n";
  os << "    \"protocol\": \"" << util::json_escape(s.protocol) << "\",\n";
  os << "    \"n\": " << s.n << ",\n";
  os << "    \"r\": " << s.bound_r << ",\n";
  os << "    \"slot_policy\": \"" << util::json_escape(s.slot_policy)
     << "\",\n";
  os << "    \"horizon_units\": " << s.horizon_units << ",\n";
  os << "    \"seed\": " << s.seed << ",\n";
  os << "    \"case_seed\": " << s.case_seed << ",\n";
  // Channel-variant fields (0/1 for flags: repro files hold only
  // objects, strings and integers). Written unconditionally so a repro
  // is explicit about running on the unrestrained channel too.
  os << "    \"restrained_k\": " << s.restrained.k << ",\n";
  os << "    \"restrained_jam\": " << (s.restrained.jam ? 1 : 0) << ",\n";
  os << "    \"energy_enabled\": " << (s.energy.enabled ? 1 : 0) << ",\n";
  os << "    \"energy_cost_transmit\": " << s.energy.cost_transmit << ",\n";
  os << "    \"energy_cost_listen\": " << s.energy.cost_listen << ",\n";
  os << "    \"energy_cost_sleep\": " << s.energy.cost_sleep << ",\n";
  os << "    \"injector\": {\n";
  os << "      \"kind\": \"" << util::json_escape(inj.kind) << "\",\n";
  os << "      \"rho_num\": " << inj.rho.num << ",\n";
  os << "      \"rho_den\": " << inj.rho.den << ",\n";
  os << "      \"burst_ticks\": " << inj.burst_ticks << ",\n";
  os << "      \"pattern\": \"" << util::json_escape(inj.pattern) << "\",\n";
  os << "      \"single_target\": " << inj.single_target << ",\n";
  os << "      \"period_ticks\": " << inj.period_ticks << ",\n";
  os << "      \"drain_a\": " << inj.drain_a << ",\n";
  os << "      \"drain_b\": " << inj.drain_b << ",\n";
  os << "      \"seed\": " << inj.seed << "\n";
  os << "    }\n";
  os << "  },\n";
  os << "  \"trace\": \"" << util::json_escape(repro.trace_text)
     << "\"\n}\n";
  // The schema carries the run's identity, not RunSpec's recording and
  // pacing fields: a scenario that changes one of those would replay as a
  // different run, so it has no repro.
  AM_REQUIRE(parse_repro_json(os.str()) == repro,
             "repro JSON cannot represent this scenario: it changes a "
             "RunSpec field the schema does not carry");
  return os.str();
}

Repro parse_repro_json(const std::string& text) {
  const JsonValue root = util::parse_json(text);
  require_repro_kinds(root);
  AM_REQUIRE(get_string(root, "format") == "asyncmac-fuzz-repro",
             "not an asyncmac fuzz repro file");
  AM_REQUIRE(get_i64(root, "version") == 1, "unsupported repro version");

  Repro repro;
  repro.violation = get_string(root, "violation");
  repro.trace_text = get_string(root, "trace");

  const JsonValue& sc = member(root, "scenario");
  Scenario& s = repro.scenario;
  s.protocol = get_string(sc, "protocol");
  s.n = get_u32(sc, "n");
  s.bound_r = get_u32(sc, "r");
  s.slot_policy = get_string(sc, "slot_policy");
  s.horizon_units = get_i64(sc, "horizon_units");
  s.seed = get_u64(sc, "seed");
  s.case_seed = get_u64(sc, "case_seed");
  const std::uint64_t rk = get_u64_or(sc, "restrained_k", 0);
  AM_REQUIRE(rk <= UINT32_MAX, "repro field out of range: restrained_k");
  s.restrained.k = static_cast<std::uint32_t>(rk);
  s.restrained.jam = get_u64_or(sc, "restrained_jam", 1) != 0;
  s.energy.enabled = get_u64_or(sc, "energy_enabled", 0) != 0;
  s.energy.cost_transmit = get_u64_or(sc, "energy_cost_transmit", 1);
  s.energy.cost_listen = get_u64_or(sc, "energy_cost_listen", 1);
  s.energy.cost_sleep = get_u64_or(sc, "energy_cost_sleep", 0);
  AM_REQUIRE(s.n >= 1 && s.bound_r >= 1 && s.horizon_units >= 1,
             "repro scenario out of range");

  const JsonValue& ij = member(sc, "injector");
  adversary::InjectorSpec& inj = s.injector;
  inj.kind = get_string(ij, "kind");
  inj.rho = util::Ratio(get_i64(ij, "rho_num"), get_i64(ij, "rho_den"));
  inj.burst_ticks = get_i64(ij, "burst_ticks");
  inj.pattern = get_string(ij, "pattern");
  inj.single_target = get_u32(ij, "single_target");
  inj.period_ticks = get_i64(ij, "period_ticks");
  inj.drain_a = get_u32(ij, "drain_a");
  inj.drain_b = get_u32(ij, "drain_b");
  inj.seed = get_u64(ij, "seed");
  return repro;
}

Repro make_repro(const Scenario& s, const std::string& violation) {
  Repro repro;
  repro.scenario = s;
  repro.violation = violation;
  try {
    auto engine = run_scenario(s);
    repro.trace_text =
        trace::serialize_trace({s.n, s.bound_r}, engine->trace().slots());
  } catch (const std::exception&) {
    // The violation is an engine exception: there is no trace to embed,
    // but the scenario alone still replays the crash.
  }
  return repro;
}

ReplayOutcome replay_repro(const Repro& repro) {
  ReplayOutcome outcome;
  outcome.case_result = run_case(repro.scenario);
  if (!repro.trace_text.empty()) {
    try {
      auto engine = run_scenario(repro.scenario);
      const std::string regenerated = trace::serialize_trace(
          {repro.scenario.n, repro.scenario.bound_r}, engine->trace().slots());
      outcome.trace_matches = regenerated == repro.trace_text;
    } catch (const std::exception&) {
      outcome.trace_matches = false;
    }
  }
  outcome.reproduced =
      outcome.trace_matches &&
      (repro.violation.empty() ? outcome.case_result.ok
                               : !outcome.case_result.ok);
  return outcome;
}

}  // namespace asyncmac::verify
