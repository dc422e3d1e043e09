#pragma once

#include <stdexcept>
#include <string>

#include "support/strings.h"

namespace amdrel {

/// Library-wide exception type. All invariant violations and user errors
/// (bad source programs, infeasible mappings, ...) surface as Error.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws Error with the given message.
[[noreturn]] void fail(const std::string& msg);

/// Throws Error(cat(parts...)) unless cond holds. Used for precondition
/// checks that must stay active in release builds (assert() is reserved
/// for internal consistency checks that are free to compile out). The
/// parts are formatted only when the check fails, so pass them directly
/// (`require(ok, "bad id ", id)`) rather than a prebuilt cat(...) string;
/// scripts/check_require_messages.py enforces this.
template <class... Parts>
void require(bool cond, const Parts&... parts) {
  if (!cond) fail(cat(parts...));
}

}  // namespace amdrel
