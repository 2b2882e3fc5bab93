#include "verify/repro.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>

#include "trace/serialize.h"
#include "util/check.h"
#include "verify/campaign.h"

namespace asyncmac::verify {

namespace {

// ------------------------------------------------------------- writing

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// ------------------------------------------------------------- parsing
//
// Minimal strict JSON for the fixed repro schema: objects, strings and
// integers. Everything unexpected throws std::invalid_argument.

struct JsonValue {
  enum class Kind { kObject, kString, kNumber } kind = Kind::kObject;
  std::map<std::string, JsonValue> object;
  std::string string;
  std::int64_t number = 0;           // valid when kind == kNumber && fits_i64
  std::uint64_t unsigned_number = 0; // full-width value for u64 fields
  bool negative = false;             // the literal had a '-' sign
  bool fits_i64 = true;              // `number` is representable
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    AM_REQUIRE(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    AM_REQUIRE(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  char take() {
    AM_REQUIRE(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_++];
  }

  void expect(char c) {
    AM_REQUIRE(take() == c, std::string("expected '") + c + "' in JSON");
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    throw std::invalid_argument("unexpected character in JSON");
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue member = parse_value();
      AM_REQUIRE(v.object.emplace(std::move(key), std::move(member)).second,
                 "duplicate JSON key");
      skip_ws();
      const char next = take();
      if (next == '}') return v;
      AM_REQUIRE(next == ',', "expected ',' or '}' in JSON object");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      AM_REQUIRE(static_cast<unsigned char>(c) >= 0x20,
                 "unescaped control character in JSON string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            value <<= 4;
            if (h >= '0' && h <= '9')
              value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              value |= static_cast<unsigned>(h - 'A' + 10);
            else
              throw std::invalid_argument("bad \\u escape in JSON string");
          }
          AM_REQUIRE(value < 0x80,
                     "non-ASCII \\u escape in repro JSON (unsupported)");
          out.push_back(static_cast<char>(value));
          break;
        }
        default:
          throw std::invalid_argument("unknown escape in JSON string");
      }
    }
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    AM_REQUIRE(pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_])),
               "malformed JSON number");
    std::uint64_t magnitude = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      AM_REQUIRE(magnitude <= (UINT64_MAX - digit) / 10,
                 "JSON number out of range");
      magnitude = magnitude * 10 + digit;
      ++pos_;
    }
    v.negative = negative;
    v.unsigned_number = negative ? 0 : magnitude;
    if (negative) {
      AM_REQUIRE(magnitude <= static_cast<std::uint64_t>(INT64_MAX) + 1,
                 "JSON number out of range");
      v.number = -static_cast<std::int64_t>(magnitude - 1) - 1;
    } else if (magnitude <= static_cast<std::uint64_t>(INT64_MAX)) {
      v.number = static_cast<std::int64_t>(magnitude);
    } else {
      // Full-u64 values (seeds) are fine; only i64 accessors must balk.
      v.fits_i64 = false;
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue& member(const JsonValue& obj, const std::string& key) {
  AM_REQUIRE(obj.kind == JsonValue::Kind::kObject, "expected JSON object");
  const auto it = obj.object.find(key);
  AM_REQUIRE(it != obj.object.end(), "missing repro field: " + key);
  return it->second;
}

const std::string& get_string(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  AM_REQUIRE(v.kind == JsonValue::Kind::kString,
             "repro field must be a string: " + key);
  return v.string;
}

std::int64_t get_i64(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  AM_REQUIRE(v.kind == JsonValue::Kind::kNumber && v.fits_i64,
             "repro field must be an int64 number: " + key);
  return v.number;
}

std::uint64_t get_u64(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = member(obj, key);
  AM_REQUIRE(v.kind == JsonValue::Kind::kNumber && !v.negative,
             "repro field must be a non-negative number: " + key);
  return v.unsigned_number;
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
  if (obj.object.find(key) == obj.object.end()) return fallback;
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
  os << "  \"violation\": ";
  write_escaped(os, repro.violation);
  os << ",\n";
  os << "  \"scenario\": {\n";
  os << "    \"protocol\": ";
  write_escaped(os, s.protocol);
  os << ",\n";
  os << "    \"n\": " << s.n << ",\n";
  os << "    \"r\": " << s.bound_r << ",\n";
  os << "    \"slot_policy\": ";
  write_escaped(os, s.slot_policy);
  os << ",\n";
  os << "    \"horizon_units\": " << s.horizon_units << ",\n";
  os << "    \"seed\": " << s.seed << ",\n";
  os << "    \"case_seed\": " << s.case_seed << ",\n";
  // Channel-variant fields (0/1 for flags — the strict parser speaks
  // only objects, strings and integers). Written unconditionally so a
  // repro is explicit about running on the unrestrained channel too.
  os << "    \"restrained_k\": " << s.restrained.k << ",\n";
  os << "    \"restrained_jam\": " << (s.restrained.jam ? 1 : 0) << ",\n";
  os << "    \"energy_enabled\": " << (s.energy.enabled ? 1 : 0) << ",\n";
  os << "    \"energy_cost_transmit\": " << s.energy.cost_transmit << ",\n";
  os << "    \"energy_cost_listen\": " << s.energy.cost_listen << ",\n";
  os << "    \"energy_cost_sleep\": " << s.energy.cost_sleep << ",\n";
  os << "    \"injector\": {\n";
  os << "      \"kind\": ";
  write_escaped(os, inj.kind);
  os << ",\n";
  os << "      \"rho_num\": " << inj.rho.num << ",\n";
  os << "      \"rho_den\": " << inj.rho.den << ",\n";
  os << "      \"burst_ticks\": " << inj.burst_ticks << ",\n";
  os << "      \"pattern\": ";
  write_escaped(os, inj.pattern);
  os << ",\n";
  os << "      \"single_target\": " << inj.single_target << ",\n";
  os << "      \"period_ticks\": " << inj.period_ticks << ",\n";
  os << "      \"drain_a\": " << inj.drain_a << ",\n";
  os << "      \"drain_b\": " << inj.drain_b << ",\n";
  os << "      \"seed\": " << inj.seed << "\n";
  os << "    }\n";
  os << "  },\n";
  os << "  \"trace\": ";
  write_escaped(os, repro.trace_text);
  os << "\n}\n";
  // The schema carries the run's identity, not RunSpec's recording and
  // pacing fields: a scenario that changes one of those would replay as a
  // different run, so it has no repro.
  AM_REQUIRE(parse_repro_json(os.str()) == repro,
             "repro JSON cannot represent this scenario: it changes a "
             "RunSpec field the schema does not carry");
  return os.str();
}

Repro parse_repro_json(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
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
