// Fixture for scripts/check_require_messages.py: one eager require()
// whose cat(...) message starts on the line after the condition. The
// lint must reject this file (ctest lint.require_messages_rejects_eager).
#include "support/error.h"

namespace amdrel {

int checked_id(int id, int size) {
  require(id >= 0 && id < size,
          cat("checked_id: bad id ", id,
              " of ", size));
  return id;
}

}  // namespace amdrel
