#include "util/json.h"

#include <cstdio>
#include <stdexcept>

#include "util/parse.h"

namespace asyncmac::util {

namespace {

// |INT64_MIN|: the largest magnitude a negative integral literal keeps.
constexpr std::uint64_t kMaxNegativeMagnitude =
    static_cast<std::uint64_t>(INT64_MAX) + 1;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  /// Skips a run of ASCII digits; returns how many.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ - start;
  }

  /// One more array/object level, refused past kMaxJsonDepth.
  void enter() {
    if (depth_ == kMaxJsonDepth)
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
           " levels");
    ++depth_;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{':
        enter();
        parse_object(v);
        --depth_;
        return v;
      case '[':
        enter();
        parse_array(v);
        --depth_;
        return v;
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default:
        return parse_number();
    }
  }

  void parse_object(JsonValue& v) {
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonValue& v) {
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(parse_hex4(), out); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (text_.size() - pos_ < 4) fail("short \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_];
      code <<= 4;
      if (h >= '0' && h <= '9')
        code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        code |= static_cast<unsigned>(h - 'A' + 10);
      else
        fail("bad \\u escape");
      ++pos_;
    }
    return code;
  }

  // Each \u escape is one BMP code unit, written as UTF-8; surrogate
  // pairs are not combined (the writers emit only \u00xx).
  static void append_utf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  // The scanner enforces the JSON number grammar; util/parse.h converts
  // the token, so an out-of-range number is a typed error here too.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    const bool negative = text_[pos_] == '-';
    if (negative) ++pos_;
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1)
      fail("leading zero in number");
    const std::size_t int_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("bad number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = parse_double(text_.substr(start, pos_ - start), "number");
    } catch (const std::invalid_argument&) {
      pos_ = start;  // the token is grammatical: only its range can fail
      fail("number out of range");
    }
    if (pos_ != int_end) return v;  // a fraction or an exponent
    v.negative = negative;
    try {
      v.magnitude = parse_u64(text_.substr(int_start, int_end - int_start),
                              "integer",
                              negative ? kMaxNegativeMagnitude : UINT64_MAX);
      v.integral = true;
    } catch (const std::invalid_argument&) {
      // Beyond 64 bits: the double alone.
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t JsonValue::as_u64() const {
  if (!integral || negative)
    throw std::invalid_argument("json: not an unsigned 64-bit integer");
  return magnitude;
}

std::int64_t JsonValue::as_i64() const {
  if (!integral ||
      (!negative && magnitude > static_cast<std::uint64_t>(INT64_MAX)))
    throw std::invalid_argument("json: not a signed 64-bit integer");
  return negative ? static_cast<std::int64_t>(~magnitude + 1)
                  : static_cast<std::int64_t>(magnitude);
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace asyncmac::util
