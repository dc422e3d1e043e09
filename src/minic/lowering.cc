#include "minic/lowering.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::minic {

namespace {

using ir::BlockId;
using ir::OpKind;
using ir::TacInstr;
using ir::TacProgram;
using ir::Terminator;

/// What a declaration slot holds while its scope is being lowered: a
/// scalar's register or an array's index into TacProgram::arrays.
struct Binding {
  int reg = -1;
  int array = -1;
};

struct LoopContext {
  BlockId continue_target = ir::kNoBlock;
  BlockId break_target = ir::kNoBlock;
};

class Lowerer {
 public:
  Lowerer(const Program& program, std::string name)
      : program_(program), slots_(program.slot_count) {
    prog_.name = std::move(name);
  }

  TacProgram run() {
    const FuncDecl& main_fn = program_.functions[checked(
        program_.main_index, program_.functions.size(), SourceLoc{}, "main")];
    const BlockId entry = new_block("entry");
    prog_.entry = entry;
    start_block(entry);

    // Globals: arrays become shared-memory symbols, scalars become
    // registers initialized in the entry block.
    for (const auto& global : program_.globals) lower_decl(*global);

    // Inline main's body as the top-level frame.
    const int main_ret = inline_body(main_fn, new_block("program_exit"));
    terminate(Terminator{Terminator::Kind::kRet, -1, ir::kNoBlock,
                         ir::kNoBlock, main_ret});

    prog_.validate();
    return std::move(prog_);
  }

 private:
  // ---- block plumbing ---------------------------------------------------
  BlockId new_block(const std::string& name) {
    ir::TacBlock block;
    block.id = static_cast<BlockId>(prog_.blocks.size());
    block.name = cat("bb", block.id, ".", name);
    prog_.blocks.push_back(std::move(block));
    return prog_.blocks.back().id;
  }

  void start_block(BlockId id) {
    current_ = id;
    terminated_ = false;
  }

  void emit(TacInstr instr) {
    require(!terminated_, "lowering: emit into terminated block");
    prog_.blocks[current_].body.push_back(instr);
  }

  void terminate(Terminator term) {
    require(!terminated_, "lowering: block terminated twice");
    prog_.blocks[current_].term = term;
    terminated_ = true;
  }

  void jump_to(BlockId target) {
    terminate(
        Terminator{Terminator::Kind::kJmp, -1, target, ir::kNoBlock, -1});
  }

  void branch(int cond_reg, BlockId if_true, BlockId if_false) {
    terminate(
        Terminator{Terminator::Kind::kBr, cond_reg, if_true, if_false, -1});
  }

  // ---- registers & slots --------------------------------------------------
  int fresh_reg(const std::string& name = {}) {
    const int reg = prog_.num_regs++;
    prog_.reg_names.push_back(name);
    return reg;
  }

  /// `slot`, which check_program recorded for `name`, as an index below
  /// `size`; an unset slot raises Error instead of reading out of range.
  static std::size_t checked(int slot, std::size_t size, SourceLoc loc,
                             const std::string& name) {
    require(slot >= 0 && static_cast<std::size_t>(slot) < size,
            "lowering: '", name, "' at line ", loc.line,
            " has no slot; run check_program first");
    return static_cast<std::size_t>(slot);
  }

  Binding& binding(int slot, SourceLoc loc, const std::string& name) {
    return slots_[checked(slot, slots_.size(), loc, name)];
  }
  /// The binding a reference reads. Sema orders every use after its
  /// declaration, except that a global's initializer may call a function
  /// that reads a later global, whose slot is still empty.
  Binding& binding(const Expr& ref) {
    Binding& bound = binding(ref.slot, ref.loc, ref.name);
    require(bound.reg != -1 || bound.array != -1, "lowering: '", ref.name,
            "' at line ", ref.loc.line,
            " is read before its declaration is lowered");
    return bound;
  }

  // ---- helpers ----------------------------------------------------------------
  // TacInstr fields in order: op, dst, src1, src2, imm, array.
  void emit_const(int dst, std::int64_t value) {
    emit(TacInstr{OpKind::kConst, dst, -1, -1, value});
  }

  int materialize_const(std::int64_t value) {
    const int reg = fresh_reg();
    emit_const(reg, value);
    return reg;
  }

  /// A fresh register = `a` op `b` (unary ops leave `b` at -1).
  int emit_op(OpKind op, int a, int b = -1) {
    const int dst = fresh_reg();
    emit(TacInstr{op, dst, a, b});
    return dst;
  }

  void emit_copy(int dst, int src) { emit(TacInstr{OpKind::kCopy, dst, src}); }

  static OpKind binop_kind(BinaryOp op) {
    switch (op) {
      case BinaryOp::kAdd: return OpKind::kAdd;
      case BinaryOp::kSub: return OpKind::kSub;
      case BinaryOp::kMul: return OpKind::kMul;
      case BinaryOp::kDiv: return OpKind::kDiv;
      case BinaryOp::kMod: return OpKind::kMod;
      case BinaryOp::kAnd: return OpKind::kAnd;
      case BinaryOp::kOr: return OpKind::kOr;
      case BinaryOp::kXor: return OpKind::kXor;
      case BinaryOp::kShl: return OpKind::kShl;
      case BinaryOp::kShr: return OpKind::kShr;
      case BinaryOp::kEq: return OpKind::kCmpEq;
      case BinaryOp::kNe: return OpKind::kCmpNe;
      case BinaryOp::kLt: return OpKind::kCmpLt;
      case BinaryOp::kLe: return OpKind::kCmpLe;
      case BinaryOp::kGt: return OpKind::kCmpGt;
      case BinaryOp::kGe: return OpKind::kCmpGe;
      case BinaryOp::kLogicalAnd:
      case BinaryOp::kLogicalOr:
        break;
    }
    fail("lowering: logical op has no direct TAC kind");
  }

  // ---- declarations --------------------------------------------------------------
  void lower_decl(const Stmt& stmt) {
    if (stmt.dims.empty()) {
      const int reg = fresh_reg(stmt.name);
      if (stmt.value) {
        emit_copy(reg, lower_expr(*stmt.value));
      } else {
        emit_const(reg, 0);
      }
      binding(stmt.slot, stmt.loc, stmt.name) = Binding{reg, -1};
      return;
    }

    ir::ArraySymbol symbol;
    symbol.name = unique_array_name(stmt.name);
    symbol.dims = stmt.dims;
    symbol.size = 1;
    for (std::int64_t dim : stmt.dims) symbol.size *= dim;
    symbol.is_const = stmt.is_const;
    if (stmt.is_const) {
      symbol.init.reserve(stmt.init_list.size());
      for (std::int64_t v : stmt.init_list) {
        symbol.init.push_back(static_cast<std::int32_t>(v));
      }
    }
    const int array = static_cast<int>(prog_.arrays.size());
    prog_.arrays.push_back(std::move(symbol));
    binding(stmt.slot, stmt.loc, stmt.name) = Binding{-1, array};

    // A non-const array with an initializer list re-initializes at the
    // declaration point, like a C auto array.
    if (!stmt.is_const && !stmt.init_list.empty()) {
      for (std::size_t i = 0; i < stmt.init_list.size(); ++i) {
        // A braced list evaluates left to right: index, then value.
        emit(TacInstr{OpKind::kStore, -1,
                      materialize_const(static_cast<std::int64_t>(i)),
                      materialize_const(stmt.init_list[i]), 0, array});
      }
    }
  }

  /// `base`, then `base#1`, `base#2`, ... for each later array of that
  /// name (identifiers never contain '#').
  std::string unique_array_name(const std::string& base) const {
    const auto n = std::count_if(
        prog_.arrays.begin(), prog_.arrays.end(), [&](const auto& array) {
          return std::string_view(array.name).substr(
                     0, array.name.find('#')) == base;
        });
    return n == 0 ? base : cat(base, "#", n);
  }

  // ---- statements -----------------------------------------------------------------
  void lower_stmt(const Stmt& stmt) {
    if (terminated_) {
      // Unreachable code after return/break: keep lowering into a dead
      // block so diagnostics and structure stay intact.
      start_block(new_block("dead"));
    }
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        for (const auto& child : stmt.body) lower_stmt(*child);
        break;
      case Stmt::Kind::kDecl:
        lower_decl(stmt);
        break;
      case Stmt::Kind::kAssign:
        lower_assign(stmt);
        break;
      case Stmt::Kind::kIf:
        lower_if(stmt);
        break;
      case Stmt::Kind::kWhile:
        lower_while(stmt);
        break;
      case Stmt::Kind::kDoWhile:
        lower_do_while(stmt);
        break;
      case Stmt::Kind::kFor:
        lower_for(stmt);
        break;
      case Stmt::Kind::kReturn: {
        if (stmt.value) {
          emit_copy(return_regs_.back(), lower_expr(*stmt.value));
        }
        jump_to(return_blocks_.back());
        break;
      }
      case Stmt::Kind::kBreak:
        jump_to(loops_.back().break_target);
        break;
      case Stmt::Kind::kContinue:
        jump_to(loops_.back().continue_target);
        break;
      case Stmt::Kind::kExpr:
        // A call may discard its value (a void callee has none).
        if (stmt.value->kind == Expr::Kind::kCall) {
          lower_call(*stmt.value);
        } else {
          lower_expr(*stmt.value);
        }
        break;
    }
  }

  void lower_assign(const Stmt& stmt) {
    const Expr& target = *stmt.target;
    if (target.kind == Expr::Kind::kVarRef) {
      const int reg = binding(target).reg;
      int value;
      if (stmt.compound) {
        value = emit_op(binop_kind(*stmt.compound), reg,
                        lower_expr(*stmt.value));
      } else {
        value = lower_expr(*stmt.value);
      }
      emit_copy(reg, value);
      return;
    }
    // Array element: evaluate the flattened index once (C evaluates the
    // lvalue once even for compound assignment).
    const int array = binding(target).array;
    const int index = lower_flat_index(target, array);
    int value;
    if (stmt.compound) {
      const int loaded = fresh_reg();
      emit(TacInstr{OpKind::kLoad, loaded, index, -1, 0, array});
      value = emit_op(binop_kind(*stmt.compound), loaded,
                      lower_expr(*stmt.value));
    } else {
      value = lower_expr(*stmt.value);
    }
    emit(TacInstr{OpKind::kStore, -1, index, value, 0, array});
  }

  void lower_if(const Stmt& stmt) {
    const BlockId then_bb = new_block("if.then");
    const BlockId merge_bb = new_block("if.end");
    const BlockId else_bb =
        stmt.else_stmt ? new_block("if.else") : merge_bb;

    lower_condition(*stmt.cond, then_bb, else_bb);

    start_block(then_bb);
    lower_stmt(*stmt.then_stmt);
    if (!terminated_) jump_to(merge_bb);

    if (stmt.else_stmt) {
      start_block(else_bb);
      lower_stmt(*stmt.else_stmt);
      if (!terminated_) jump_to(merge_bb);
    }
    start_block(merge_bb);
  }

  void lower_while(const Stmt& stmt) {
    const BlockId cond_bb = new_block("while.cond");
    const BlockId body_bb = new_block("while.body");
    const BlockId exit_bb = new_block("while.end");

    jump_to(cond_bb);
    start_block(cond_bb);
    lower_condition(*stmt.cond, body_bb, exit_bb);

    loops_.push_back({cond_bb, exit_bb});
    start_block(body_bb);
    lower_stmt(*stmt.body_stmt);
    if (!terminated_) jump_to(cond_bb);
    loops_.pop_back();

    start_block(exit_bb);
  }

  void lower_do_while(const Stmt& stmt) {
    const BlockId body_bb = new_block("do.body");
    const BlockId cond_bb = new_block("do.cond");
    const BlockId exit_bb = new_block("do.end");

    jump_to(body_bb);
    loops_.push_back({cond_bb, exit_bb});
    start_block(body_bb);
    lower_stmt(*stmt.body_stmt);
    if (!terminated_) jump_to(cond_bb);
    loops_.pop_back();

    start_block(cond_bb);
    lower_condition(*stmt.cond, body_bb, exit_bb);
    start_block(exit_bb);
  }

  void lower_for(const Stmt& stmt) {
    if (stmt.for_init) lower_stmt(*stmt.for_init);

    const BlockId cond_bb = new_block("for.cond");
    const BlockId body_bb = new_block("for.body");
    const BlockId step_bb = new_block("for.step");
    const BlockId exit_bb = new_block("for.end");

    jump_to(cond_bb);
    start_block(cond_bb);
    if (stmt.cond) {
      lower_condition(*stmt.cond, body_bb, exit_bb);
    } else {
      jump_to(body_bb);
    }

    loops_.push_back({step_bb, exit_bb});
    start_block(body_bb);
    lower_stmt(*stmt.body_stmt);
    if (!terminated_) jump_to(step_bb);
    loops_.pop_back();

    start_block(step_bb);
    if (stmt.for_step) lower_stmt(*stmt.for_step);
    if (!terminated_) jump_to(cond_bb);

    start_block(exit_bb);
  }

  /// Lowers a boolean context with short-circuit evaluation: control
  /// transfers to if_true / if_false without materializing a value.
  void lower_condition(const Expr& expr, BlockId if_true, BlockId if_false) {
    if (expr.kind == Expr::Kind::kBinary) {
      if (expr.bin_op == BinaryOp::kLogicalAnd) {
        const BlockId mid = new_block("and.rhs");
        lower_condition(*expr.lhs, mid, if_false);
        start_block(mid);
        lower_condition(*expr.rhs, if_true, if_false);
        return;
      }
      if (expr.bin_op == BinaryOp::kLogicalOr) {
        const BlockId mid = new_block("or.rhs");
        lower_condition(*expr.lhs, if_true, mid);
        start_block(mid);
        lower_condition(*expr.rhs, if_true, if_false);
        return;
      }
    }
    if (expr.kind == Expr::Kind::kUnary &&
        expr.un_op == UnaryOp::kLogicalNot) {
      lower_condition(*expr.lhs, if_false, if_true);
      return;
    }
    branch(lower_expr(expr), if_true, if_false);
  }

  // ---- expressions ------------------------------------------------------------------
  int lower_flat_index(const Expr& expr, int array) {
    const ir::ArraySymbol& symbol = prog_.arrays[array];
    if (expr.indices.size() == 1) return lower_expr(*expr.indices[0]);
    require(symbol.dims.size() == expr.indices.size(),
            "lowering: index arity mismatch (sema should have caught this)");
    // row-major: ((i0 * d1 + i1) * d2 + i2) ...
    int index = lower_expr(*expr.indices[0]);
    for (std::size_t d = 1; d < expr.indices.size(); ++d) {
      const int scaled =
          emit_op(OpKind::kMul, index, materialize_const(symbol.dims[d]));
      index = emit_op(OpKind::kAdd, scaled, lower_expr(*expr.indices[d]));
    }
    return index;
  }

  int lower_expr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        return materialize_const(expr.value);
      case Expr::Kind::kVarRef:
        return binding(expr).reg;
      case Expr::Kind::kIndex: {
        const int dst = fresh_reg();  // numbered before the index registers
        const int array = binding(expr).array;
        emit(TacInstr{OpKind::kLoad, dst, lower_flat_index(expr, array), -1,
                      0, array});
        return dst;
      }
      case Expr::Kind::kUnary:
        switch (expr.un_op) {
          case UnaryOp::kNeg:
            return emit_op(OpKind::kNeg, lower_expr(*expr.lhs));
          case UnaryOp::kBitNot:
            return emit_op(OpKind::kNot, lower_expr(*expr.lhs));
          case UnaryOp::kLogicalNot: {
            // The constant's register is numbered before the operand's.
            const int zero = materialize_const(0);
            return emit_op(OpKind::kCmpEq, lower_expr(*expr.lhs), zero);
          }
        }
        fail("lowering: bad unary op");
      case Expr::Kind::kBinary: {
        if (expr.bin_op == BinaryOp::kLogicalAnd ||
            expr.bin_op == BinaryOp::kLogicalOr) {
          return lower_logical_value(expr);
        }
        const int lhs = lower_expr(*expr.lhs);
        const int rhs = lower_expr(*expr.rhs);
        return emit_op(binop_kind(expr.bin_op), lhs, rhs);
      }
      case Expr::Kind::kCall: {
        const int reg = lower_call(expr);
        require(reg != -1, "lowering: void call used as value");
        return reg;
      }
    }
    fail("lowering: bad expression kind");
  }

  /// Materializes `a && b` / `a || b` as 0/1 through the CFG (short
  /// circuit preserved).
  int lower_logical_value(const Expr& expr) {
    const int result = fresh_reg("logical");
    const BlockId true_bb = new_block("logic.true");
    const BlockId false_bb = new_block("logic.false");
    const BlockId merge_bb = new_block("logic.end");
    lower_condition(expr, true_bb, false_bb);
    start_block(true_bb);
    emit_const(result, 1);
    jump_to(merge_bb);
    start_block(false_bb);
    emit_const(result, 0);
    jump_to(merge_bb);
    start_block(merge_bb);
    return result;
  }

  /// Inlines a call; returns the value register or -1 for void callees.
  /// Sema rejects recursion, so no caller's live binding sits in the
  /// callee's slots. An argument may inline the same callee (f(1, f(2,
  /// 3))), so every argument is evaluated before any parameter is bound.
  int lower_call(const Expr& call) {
    const FuncDecl& callee = program_.functions[checked(
        call.slot, program_.functions.size(), call.loc, call.name)];

    // Evaluate arguments in the caller's scope first.
    std::vector<Binding> bindings;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const ParamDecl& param = callee.params[i];
      if (param.is_array) {
        bindings.push_back(binding(*call.args[i]));
      } else {
        const int reg = fresh_reg(cat(callee.name, ".", param.name));
        emit_copy(reg, lower_expr(*call.args[i]));
        bindings.push_back(Binding{reg, -1});
      }
    }

    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const ParamDecl& param = callee.params[i];
      binding(param.slot, param.loc, param.name) = bindings[i];
    }
    return inline_body(callee, new_block(cat(callee.name, ".cont")));
  }

  /// Lowers `function`'s body in place, every return jumping to `exit`,
  /// and continues in `exit`. Returns the register holding the returned
  /// value (0 until a return sets it), or -1 for a void function.
  int inline_body(const FuncDecl& function, BlockId exit) {
    const int return_reg =
        function.returns_value ? fresh_reg(cat(function.name, ".ret")) : -1;
    if (return_reg != -1) emit_const(return_reg, 0);
    return_regs_.push_back(return_reg);
    return_blocks_.push_back(exit);
    lower_stmt(*function.body);
    if (!terminated_) jump_to(exit);
    return_blocks_.pop_back();
    return_regs_.pop_back();
    start_block(exit);
    return return_reg;
  }

  const Program& program_;
  TacProgram prog_;
  std::vector<Binding> slots_;  ///< by check_program's declaration slot
  std::vector<int> return_regs_;
  std::vector<BlockId> return_blocks_;
  std::vector<LoopContext> loops_;
  BlockId current_ = ir::kNoBlock;
  bool terminated_ = true;
};

}  // namespace

ir::TacProgram lower(const Program& program, const std::string& program_name) {
  return Lowerer(program, program_name).run();
}

}  // namespace amdrel::minic
