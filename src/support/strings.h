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

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and the common control characters get two-char escapes,
/// any other byte below 0x20 becomes \u00xx. Shared by the sweep
/// emitters and the sweep-cache persistence, whose byte-for-byte
/// round-trip contracts require one escaping rule.
inline std::string json_escape(const std::string& text) {
  return text::render(text::JsonEscaped{text});
}

/// Splits on a separator. Note getline semantics: a trailing separator
/// produces NO final empty item ("a," -> {"a"}), while interior empties
/// are kept ("a,,b" -> {"a", "", "b"}) — callers validating list specs
/// must reject a trailing separator themselves. Shared by the CLI flag
/// lists and the platform-grid spec parser.
inline std::vector<std::string> split(const std::string& text,
                                      char separator = ',') {
  std::vector<std::string> items;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, separator)) items.push_back(item);
  return items;
}

}  // namespace amdrel
