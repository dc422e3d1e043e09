#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace amdrel::core::jsonl {

// ---------------------------------------------------------------------------
// Minimal strict JSON machinery shared by the two newline-delimited JSON
// surfaces of the system: the sweep cache's on-disk format
// (core/sweep_cache.cc) and the sweep service's coordinator<->worker wire
// protocol (core/wire.cc). Header-only so both stay free of a shared
// translation unit; the strictness is the point — every malformed line
// is rejected, never coerced, which is what makes "corrupt input ->
// reject whole stream" a reliable contract on both surfaces. The wire's
// cell-line cursor (wire::decode_cell_line) reads values through the
// same scan_int, scan_string and narrow as the tree parser.
// ---------------------------------------------------------------------------

/// Minimal strict JSON value: everything the cache/wire schemas use
/// (integers, booleans, strings, arrays, objects). No floats — the
/// schemas have none (doubles travel as IEEE-754 bit patterns), and
/// rejecting them keeps round-trips exact.
struct JsonValue {
  enum class Kind { kBool, kInt, kString, kArray, kObject };
  Kind kind = Kind::kInt;
  bool boolean = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& name) const {
    for (const auto& [key, value] : fields) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// Scans one integer at `p`, advancing `p` past it. Strict: an optional
/// '-', then digits with no leading zero, and a magnitude int64 holds.
/// A negative magnitude may reach 2^63: INT64_MIN is a real value here
/// (the bit pattern of the double -0.0).
inline bool scan_int(const char*& p, const char* end, std::int64_t& out) {
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  if (p == end || *p < '0' || *p > '9') return false;
  if (*p == '0' && p + 1 != end && p[1] >= '0' && p[1] <= '9') return false;
  const std::uint64_t limit =
      negative ? 0x8000000000000000ULL : 0x7fffffffffffffffULL;
  std::uint64_t magnitude = 0;
  while (p != end && *p >= '0' && *p <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p++ - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
  }
  // Negating magnitude - 1 keeps -2^63 clear of signed overflow.
  out = !negative || magnitude == 0
            ? static_cast<std::int64_t>(magnitude)
            : -static_cast<std::int64_t>(magnitude - 1) - 1;
  return true;
}

/// Scans one string literal starting at its opening quote into `out`,
/// advancing `p` past the closing quote. Only the escapes the writers
/// emit are accepted (\" \\ \n \r \t and \u00xx up to 0x7f in lowercase
/// hex); a raw byte below 0x20 is rejected (RFC 8259 section 7).
inline bool scan_string(const char*& p, const char* end, std::string& out) {
  if (p == end || *p != '"') return false;
  ++p;
  out.clear();
  for (;;) {
    const char* run = p;
    while (p != end && *p != '"' && *p != '\\' &&
           static_cast<unsigned char>(*p) >= 0x20) {
      ++p;
    }
    out.append(run, p);
    if (p == end || static_cast<unsigned char>(*p) < 0x20) return false;
    if (*p++ == '"') return true;
    if (p == end) return false;
    switch (*p++) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char d = p == end ? 'x' : *p++;
          const bool decimal = d >= '0' && d <= '9';
          if (!decimal && (d < 'a' || d > 'f')) return false;
          value = value << 4 |
                  static_cast<unsigned>(decimal ? d - '0' : d - 'a' + 10);
        }
        if (value > 0x7f) return false;  // writer only escapes control chars
        out += static_cast<char>(value);
        break;
      }
      default:
        return false;
    }
  }
}

/// Recursive-descent parser for one JSON line. Strict: unknown escape
/// sequences, raw control bytes, floats, leading zeros, duplicate keys,
/// trailing garbage and depth past the schemas' needs all fail.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse(JsonValue& out) {
    skip_space();
    if (!parse_value(out, /*depth=*/0)) return false;
    skip_space();
    return p_ == end_;
  }

 private:
  static constexpr int kMaxDepth = 8;

  void skip_space() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
  }

  bool literal(const char* text) {
    const char* q = p_;
    for (; *text; ++text, ++q) {
      if (q == end_ || *q != *text) return false;
    }
    p_ = q;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || p_ == end_) return false;
    switch (*p_) {
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::kString;
        return scan_string(p_, end_, out.string);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        out.kind = JsonValue::Kind::kInt;
        return scan_int(p_, end_, out.integer);
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++p_;  // '['
    skip_space();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_space();
      if (p_ == end_) return false;
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      if (*p_++ != ',') return false;
      skip_space();
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++p_;  // '{'
    skip_space();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    for (;;) {
      std::string key;
      if (!scan_string(p_, end_, key)) return false;
      skip_space();
      if (p_ == end_ || *p_++ != ':') return false;
      skip_space();
      JsonValue value;
      if (!parse_value(value, depth + 1) || out.find(key)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_space();
      if (p_ == end_) return false;
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      if (*p_++ != ',') return false;
      skip_space();
    }
  }

  const char* p_;
  const char* end_;
};

/// Checked narrowing: stores `v` in `out` only when `T` represents it
/// exactly. Every decoder narrows through this, so a value past the
/// field's range (say 2^32 + 2 for an int) is a malformed field, never a
/// silent wraparound.
template <typename T>
bool narrow(std::int64_t v, T& out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "narrow targets an integer type");
  if constexpr (std::is_unsigned_v<T>) {
    if (v < 0) return false;
  }
  if constexpr (sizeof(T) < sizeof(std::int64_t)) {
    if (v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
        v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
  }
  out = static_cast<T>(v);
  return true;
}

/// narrow() over a parsed value; false unless it is an integer.
template <typename T>
bool to_int(const JsonValue& value, T& out) {
  return value.kind == JsonValue::Kind::kInt && narrow(value.integer, out);
}

// Typed field accessors: each returns false when the field is missing or
// of the wrong kind (or, for get_int, out of `T`'s range), so every
// malformed line is caught, never coerced.
template <typename T>
bool get_int(const JsonValue& object, const char* name, T& out) {
  const JsonValue* v = object.find(name);
  return v && to_int(*v, out);
}

inline bool get_bool(const JsonValue& object, const char* name, bool& out) {
  const JsonValue* v = object.find(name);
  if (!v || v->kind != JsonValue::Kind::kBool) return false;
  out = v->boolean;
  return true;
}

inline bool get_string(const JsonValue& object, const char* name,
                       std::string& out) {
  const JsonValue* v = object.find(name);
  if (!v || v->kind != JsonValue::Kind::kString) return false;
  out = v->string;
  return true;
}

// Doubles round-trip through their IEEE-754 bit pattern (as a signed
// 64-bit integer) so the strict integer-only parser needs no float
// grammar and a reader recovers exactly the bits the writer held.
// Fingerprints and walk keys use the same cast.
inline std::int64_t double_to_bits(double value) {
  std::int64_t bits = 0;
  static_assert(sizeof bits == sizeof value, "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

inline double bits_to_double(std::int64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

}  // namespace amdrel::core::jsonl
