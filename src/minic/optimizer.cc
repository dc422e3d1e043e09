#include "minic/optimizer.h"

#include <map>
#include <optional>
#include <vector>

#include "support/error.h"

namespace amdrel::minic {

namespace {

using ir::OpKind;
using ir::TacInstr;
using ir::TacProgram;
using ir::wrap;

bool is_binary(OpKind op) {
  switch (op) {
    case OpKind::kConst:
    case OpKind::kCopy:
    case OpKind::kNot:
    case OpKind::kNeg:
    case OpKind::kLoad:
    case OpKind::kStore:
      return false;
    default:
      return true;
  }
}

class Optimizer {
 public:
  explicit Optimizer(TacProgram& program) : prog_(program) {}

  int run() {
    int total = 0;
    int pass_changes;
    int guard = 0;
    do {
      pass_changes = 0;
      for (auto& block : prog_.blocks) pass_changes += local_pass(block);
      pass_changes += dce_pass();
      total += pass_changes;
      require(++guard < 64, "optimizer: fixed point not reached");
    } while (pass_changes > 0);
    prog_.validate();
    return total;
  }

 private:
  /// Constant folding, copy propagation and algebraic simplification
  /// within one block.
  int local_pass(ir::TacBlock& block) {
    int changes = 0;
    std::map<int, std::int32_t> constants;  // reg -> known value
    std::map<int, int> copies;              // reg -> original reg

    auto canonical = [&](int reg) {
      const auto it = copies.find(reg);
      return it == copies.end() ? reg : it->second;
    };
    auto known = [&](int reg) -> std::optional<std::int32_t> {
      const auto it = constants.find(reg);
      if (it == constants.end()) return std::nullopt;
      return it->second;
    };
    auto invalidate = [&](int reg) {
      constants.erase(reg);
      copies.erase(reg);
      // Any copy chain rooted at reg is broken by the redefinition.
      for (auto it = copies.begin(); it != copies.end();) {
        it = it->second == reg ? copies.erase(it) : std::next(it);
      }
    };
    auto make_const = [&](TacInstr& instr, std::int32_t value) {
      instr.op = OpKind::kConst;
      instr.imm = value;
      instr.src1 = instr.src2 = -1;
      changes++;
    };
    auto make_copy = [&](TacInstr& instr, int src) {
      instr.op = OpKind::kCopy;
      instr.src1 = src;
      instr.src2 = -1;
      changes++;
    };

    for (TacInstr& instr : block.body) {
      // Rewrite sources through copy chains first.
      if (instr.op != OpKind::kConst && instr.src1 >= 0) {
        const int c = canonical(instr.src1);
        if (c != instr.src1) {
          instr.src1 = c;
          changes++;
        }
      }
      if (instr.src2 >= 0) {
        const int c = canonical(instr.src2);
        if (c != instr.src2) {
          instr.src2 = c;
          changes++;
        }
      }

      // Fold / simplify.
      if (is_binary(instr.op)) {
        const auto a = known(instr.src1);
        const auto b = known(instr.src2);
        if (a && b) {
          if (const auto value = ir::eval_binary(instr.op, *a, *b)) {
            make_const(instr, *value);
          }
        } else if (a || b) {
          simplify_with_one_const(instr, a, b, make_const, make_copy);
        } else if (instr.src1 == instr.src2) {
          simplify_same_operand(instr, make_const, make_copy);
        }
      } else if (instr.op == OpKind::kNot) {
        if (const auto a = known(instr.src1)) make_const(instr, ~*a);
      } else if (instr.op == OpKind::kNeg) {
        if (const auto a = known(instr.src1)) {
          make_const(instr, wrap(-std::int64_t{*a}));
        }
      } else if (instr.op == OpKind::kCopy) {
        if (const auto a = known(instr.src1)) make_const(instr, *a);
      }

      // Update the local lattice.
      if (instr.dst >= 0) {
        invalidate(instr.dst);
        if (instr.op == OpKind::kConst) {
          constants[instr.dst] = wrap(instr.imm);
        } else if (instr.op == OpKind::kCopy && instr.src1 != instr.dst) {
          copies[instr.dst] = canonical(instr.src1);
        }
      }
    }

    // The terminator's condition can fold to a constant branch.
    if (block.term.kind == ir::Terminator::Kind::kBr) {
      const int c = canonical(block.term.cond_reg);
      if (c != block.term.cond_reg) {
        block.term.cond_reg = c;
        changes++;
      }
    }
    if (block.term.kind == ir::Terminator::Kind::kBr) {
      if (const auto value = known(block.term.cond_reg)) {
        block.term.kind = ir::Terminator::Kind::kJmp;
        block.term.if_true =
            *value != 0 ? block.term.if_true : block.term.if_false;
        block.term.if_false = ir::kNoBlock;
        block.term.cond_reg = -1;
        changes++;
      }
    }
    if (block.term.kind == ir::Terminator::Kind::kRet &&
        block.term.ret_reg >= 0) {
      const int c = canonical(block.term.ret_reg);
      if (c != block.term.ret_reg) {
        block.term.ret_reg = c;
        changes++;
      }
    }
    return changes;
  }

  template <typename MakeConst, typename MakeCopy>
  void simplify_with_one_const(TacInstr& instr,
                               std::optional<std::int32_t> a,
                               std::optional<std::int32_t> b,
                               MakeConst&& make_const, MakeCopy&& make_copy) {
    const bool const_is_lhs = a.has_value();
    const std::int32_t value = const_is_lhs ? *a : *b;
    const int other = const_is_lhs ? instr.src2 : instr.src1;
    switch (instr.op) {
      case OpKind::kAdd:
      case OpKind::kOr:
      case OpKind::kXor:
        if (value == 0) make_copy(instr, other);
        break;
      case OpKind::kSub:
        if (!const_is_lhs && value == 0) make_copy(instr, other);
        break;
      case OpKind::kMul:
        if (value == 0) make_const(instr, 0);
        else if (value == 1) make_copy(instr, other);
        break;
      case OpKind::kAnd:
        if (value == 0) make_const(instr, 0);
        else if (value == -1) make_copy(instr, other);
        break;
      case OpKind::kShl:
      case OpKind::kShr:
        if (!const_is_lhs && (value & 31) == 0) make_copy(instr, other);
        else if (const_is_lhs && value == 0) make_const(instr, 0);
        break;
      case OpKind::kDiv:
        if (!const_is_lhs && value == 1) make_copy(instr, other);
        break;
      default:
        break;
    }
  }

  template <typename MakeConst, typename MakeCopy>
  void simplify_same_operand(TacInstr& instr, MakeConst&& make_const,
                             MakeCopy&& make_copy) {
    switch (instr.op) {
      case OpKind::kSub:
      case OpKind::kXor:
        make_const(instr, 0);
        break;
      case OpKind::kAnd:
      case OpKind::kOr:
        make_copy(instr, instr.src1);
        break;
      case OpKind::kCmpEq:
      case OpKind::kCmpLe:
      case OpKind::kCmpGe:
        make_const(instr, 1);
        break;
      case OpKind::kCmpNe:
      case OpKind::kCmpLt:
      case OpKind::kCmpGt:
        make_const(instr, 0);
        break;
      default:
        break;
    }
  }

  /// Removes definitions of registers no instruction or terminator reads.
  /// Safe globally: registers are not addressable, so read counts are
  /// exact. Stores always survive.
  int dce_pass() {
    std::vector<bool> read(static_cast<std::size_t>(prog_.num_regs), false);
    for (const auto& block : prog_.blocks) {
      for (const TacInstr& instr : block.body) {
        if (instr.op != OpKind::kConst && instr.src1 >= 0) {
          read[instr.src1] = true;
        }
        if (instr.src2 >= 0) read[instr.src2] = true;
      }
      if (block.term.cond_reg >= 0) read[block.term.cond_reg] = true;
      if (block.term.ret_reg >= 0) read[block.term.ret_reg] = true;
    }
    int removed = 0;
    for (auto& block : prog_.blocks) {
      std::vector<TacInstr> kept;
      kept.reserve(block.body.size());
      for (const TacInstr& instr : block.body) {
        const bool dead = instr.op != OpKind::kStore && instr.dst >= 0 &&
                          !read[instr.dst];
        if (dead) {
          removed++;
        } else {
          kept.push_back(instr);
        }
      }
      block.body = std::move(kept);
    }
    return removed;
  }

  TacProgram& prog_;
};

}  // namespace

int optimize(ir::TacProgram& program) {
  return Optimizer(program).run();
}

}  // namespace amdrel::minic
