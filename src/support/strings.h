#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/text.h"

namespace amdrel {

namespace detail {
inline void cat_into(std::ostringstream&) {}

template <typename T, typename... Rest>
void cat_into(std::ostringstream& os, const T& head, const Rest&... rest) {
  os << head;
  cat_into(os, rest...);
}
}  // namespace detail

/// Concatenates all arguments with operator<< into one string.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  std::ostringstream os;
  detail::cat_into(os, parts...);
  return os.str();
}

/// Escapes a string for embedding in a JSON string literal, as a string:
/// text::render(text::JsonEscaped{text}). The library's writers append
/// text::JsonEscaped directly; perfbench/perf_trace.cc calls this one
/// for its report header.
inline std::string json_escape(const std::string& text) {
  return text::render(text::JsonEscaped{text});
}

/// Splits on a separator and returns every field, empty ones included:
/// "a,,b" -> {"a", "", "b"}, "a," -> {"a", ""} and "" -> {""}, so a
/// caller that rejects an empty item rejects an empty list and a
/// trailing separator too. Shared by the CLI flag lists and the
/// platform-grid spec parser.
inline std::vector<std::string> split(const std::string& text,
                                      char separator = ',') {
  std::vector<std::string> items(1);
  for (const char c : text) {
    if (c == separator) {
      items.emplace_back();
    } else {
      items.back() += c;
    }
  }
  return items;
}

}  // namespace amdrel
