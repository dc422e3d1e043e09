#include "support/error.h"

namespace amdrel {

void fail(const std::string& msg) { throw Error(msg); }

}  // namespace amdrel
