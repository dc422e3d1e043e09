// Fixture for scripts/check_require_messages.py: eager require() calls,
// one for each form the lint knows, in the first message part or a
// later one. The lint must reject this file and count every call
// (ctest lint.require_messages_rejects_eager and
// lint.require_messages_counts_eager).
#include <string>

#include "ir/op.h"
#include "minic/token.h"
#include "support/error.h"

namespace amdrel {

int checked_id(int id, int size) {
  require(id >= 0 && id < size,
          cat("checked_id: bad id ", id,
              " of ", size));
  require(id != 1, "checked_id: id ", amdrel::cat(id), " is reserved");
  require(id != 2, "checked_id: id ", std::string("two"));
  return id;
}

void checked_op(ir::OpKind kind, bool ok) {
  require(ok, "checked_op: bad op '", ir::op_name(kind), "'");
  require(ok, "checked_op: bad op '", op_name(kind), "'");
  require(ok, "checked_op: bad op '", amdrel::ir::op_name(kind), "'");
}

void checked_token(minic::TokenKind want, minic::TokenKind got) {
  require(want == got, "expected ", minic::token_kind_name(want),
          ", got ", token_kind_name(got));
}

}  // namespace amdrel
