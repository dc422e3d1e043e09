#pragma once

#include <cassert>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace amdrel::text {

// ---------------------------------------------------------------------------
// The one appender behind every sweep writer: append(out, parts...)
// renders each part onto the end of `out`, so a line is built in one
// reused buffer with no stream and no temporary strings. Integers go
// through std::to_chars; doubles through std::to_chars with a precision,
// which the text tests prove byte-equal to the printf conversion each
// tag names. Escaped strings and digit grouping go through the tags
// below.
// ---------------------------------------------------------------------------

/// printf "%.<precision>f".
struct Fixed {
  double value;
  int precision;
};

/// printf "%.<precision>g".
struct General {
  double value;
  int precision;
};

/// The JSON string-literal body of `text` (no surrounding quotes):
/// quotes, backslashes and \n \r \t get two-char escapes, any other byte
/// below 0x20 becomes \u00xx.
struct JsonEscaped {
  std::string_view text;
};

/// `text` as one RFC-4180 CSV field: wrapped in quotes, embedded quotes
/// doubled, when it holds a comma, quote, CR or LF; verbatim otherwise.
struct CsvField {
  std::string_view text;
};

/// A decimal integer with a comma every three digits ("-1,234,567").
struct Thousands {
  std::int64_t value;
};

inline void append_part(std::string& out, std::string_view text) {
  out.append(text);
}
// Without this overload a const char* would convert to bool, not to
// std::string_view.
inline void append_part(std::string& out, const char* text) {
  out.append(text);
}
inline void append_part(std::string& out, char c) { out.push_back(c); }
/// Booleans render as the JSON literals.
inline void append_part(std::string& out, bool value) {
  out.append(value ? "true" : "false");
}

template <typename T,
          typename = std::enable_if_t<std::is_integral_v<T> &&
                                      !std::is_same_v<T, bool> &&
                                      !std::is_same_v<T, char>>>
void append_part(std::string& out, T value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

namespace detail {
// 309 integer digits (DBL_MAX), a sign, a point and the fraction digits
// the writers ask for all fit; a precision that does not fit is a bug.
inline void append_double(std::string& out, double value,
                          std::chars_format format, int precision) {
  char buffer[400];
  const auto result =
      std::to_chars(buffer, buffer + sizeof buffer, value, format, precision);
  assert(result.ec == std::errc());
  out.append(buffer, result.ptr);
}
}  // namespace detail

inline void append_part(std::string& out, Fixed number) {
  detail::append_double(out, number.value, std::chars_format::fixed,
                        number.precision);
}
inline void append_part(std::string& out, General number) {
  detail::append_double(out, number.value, std::chars_format::general,
                        number.precision);
}

inline void append_part(std::string& out, JsonEscaped escaped) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : escaped.text) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append("\\u00");
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
}

inline void append_part(std::string& out, CsvField field) {
  if (field.text.find_first_of(",\"\n\r") == std::string_view::npos) {
    out.append(field.text);
    return;
  }
  out.push_back('"');
  for (const char c : field.text) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

inline void append_part(std::string& out, Thousands number) {
  // The unsigned magnitude: negating INT64_MIN itself would overflow.
  std::uint64_t magnitude = static_cast<std::uint64_t>(number.value);
  if (number.value < 0) {
    out.push_back('-');
    magnitude = ~magnitude + 1;
  }
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, magnitude).ptr;
  const std::size_t count = static_cast<std::size_t>(end - digits);
  for (std::size_t i = 0; i < count; ++i) {
    if (i != 0 && (count - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
}

/// Appends every part, in order, to `out`. A type of another namespace
/// becomes a part by declaring append_part(std::string&, const T&) next
/// to it, found by argument-dependent lookup (core::CellPayload does).
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

/// The parts rendered into a fresh string.
template <typename... Parts>
std::string render(const Parts&... parts) {
  std::string out;
  append(out, parts...);
  return out;
}

}  // namespace amdrel::text
