// Fixture for scripts/check_require_messages.py: lazy require() calls
// and eager-looking text inside comments and literals. The lint must
// accept this file (ctest lint.require_messages_accepts_lazy).
#include <string>
#include <string_view>

#include "ir/op.h"
#include "support/error.h"

namespace amdrel {

// require(ok, cat("in a line comment"));
/* require(ok, std::string("in a block comment") + name); */
int checked_id(int id, int size, const std::string& name) {
  require(id >= 0 && id < size, "checked_id: bad id ", id, " of ", size);
  require(!name.empty(), "require(ok, cat(\"in a string\"))");
  require(name.size() < 64, R"(require(ok, cat(")"), name, R"x()")x");
  require(name != "(", ')', std::string_view("(cat("), name);
  const char open = '(';
  require(size > 0, "checked_id: size must be positive, not ", size, open);
  const int concat_count = size;
  require(concat_count > 0, "checked_id: ", concat_count, " op_name(s)");
  return id;
}

// A message that names a value only on the failure path.
void checked_op(ir::OpKind kind, bool ok) {
  if (!ok) fail(cat("checked_op: bad op '", ir::op_name(kind), "'"));
}

}  // namespace amdrel
