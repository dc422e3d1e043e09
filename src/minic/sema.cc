#include "minic/sema.h"

#include <map>
#include <vector>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::minic {

namespace {

struct SymbolInfo {
  int slot = -1;  ///< dense declaration slot recorded on every use
  bool is_array = false;
  bool is_const = false;
  bool any_length = false;  ///< 1-D array parameter declared as int a[]
  std::vector<std::int64_t> dims;
};

[[noreturn]] void sema_error(SourceLoc loc, const std::string& message) {
  fail(cat("semantic error at line ", loc.line, ", column ", loc.column, ": ",
           message));
}

class Checker {
 public:
  explicit Checker(Program& program, bool require_main)
      : program_(program), require_main_(require_main) {}

  void run() {
    for (std::size_t i = 0; i < program_.functions.size(); ++i) {
      const FuncDecl& function = program_.functions[i];
      require(functions_.emplace(function.name, static_cast<int>(i)).second,
              "semantic error at line ", function.loc.line,
              ": redefinition of function '", function.name, "'");
    }
    const auto main_it = functions_.find("main");
    program_.main_index = main_it == functions_.end() ? -1 : main_it->second;
    if (require_main_) {
      require(program_.main_index != -1,
              "semantic error: program has no 'main' function");
      require(program_.functions[program_.main_index].params.empty(),
              "semantic error: 'main' must take no parameters");
    }

    push_scope();
    for (auto& global : program_.globals) check_stmt(*global);
    for (auto& function : program_.functions) check_function(function);
    pop_scope();
    program_.slot_count = next_slot_;

    check_recursion();
  }

 private:
  // ---- scopes -----------------------------------------------------------
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }

  /// Declares `name` in the innermost scope; returns its new slot.
  int declare(SourceLoc loc, const std::string& name, SymbolInfo info) {
    if (functions_.count(name) != 0) {
      sema_error(loc, cat("'", name, "' is already a function name"));
    }
    info.slot = next_slot_;
    if (!scopes_.back().emplace(name, std::move(info)).second) {
      sema_error(loc, cat("redeclaration of '", name, "' in the same scope"));
    }
    return next_slot_++;
  }

  /// Resolves the name `expr` uses, innermost scope first, and records
  /// the declaration's slot on `expr`.
  const SymbolInfo& resolve(Expr& expr) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(expr.name);
      if (found != it->end()) {
        expr.slot = found->second.slot;
        return found->second;
      }
    }
    sema_error(expr.loc, cat("undeclared identifier '", expr.name, "'"));
  }

  // ---- functions ----------------------------------------------------------
  void check_function(FuncDecl& function) {
    current_function_ = &function;
    push_scope();
    for (auto& param : function.params) {
      SymbolInfo info;
      info.is_array = param.is_array;
      info.any_length = param.is_array && param.dims.empty();
      info.dims = param.dims;
      param.slot = declare(param.loc, param.name, std::move(info));
    }
    check_stmt(*function.body);
    pop_scope();
    current_function_ = nullptr;
  }

  // ---- statements -----------------------------------------------------------
  void check_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        push_scope();
        for (const auto& child : stmt.body) check_stmt(*child);
        pop_scope();
        break;
      case Stmt::Kind::kDecl:
        check_decl(stmt);
        break;
      case Stmt::Kind::kAssign:
        check_assign(stmt);
        break;
      case Stmt::Kind::kIf:
        check_expr_value(*stmt.cond);
        check_stmt(*stmt.then_stmt);
        if (stmt.else_stmt) check_stmt(*stmt.else_stmt);
        break;
      case Stmt::Kind::kWhile:
      case Stmt::Kind::kDoWhile:
        check_expr_value(*stmt.cond);
        ++loop_depth_;
        check_stmt(*stmt.body_stmt);
        --loop_depth_;
        break;
      case Stmt::Kind::kFor:
        push_scope();  // the induction variable's scope
        if (stmt.for_init) check_stmt(*stmt.for_init);
        if (stmt.cond) check_expr_value(*stmt.cond);
        if (stmt.for_step) check_stmt(*stmt.for_step);
        ++loop_depth_;
        check_stmt(*stmt.body_stmt);
        --loop_depth_;
        pop_scope();
        break;
      case Stmt::Kind::kReturn:
        if (current_function_ == nullptr) {
          sema_error(stmt.loc, "return outside of a function");
        }
        if (current_function_->returns_value) {
          if (!stmt.value) {
            sema_error(stmt.loc, cat("function '", current_function_->name,
                                     "' must return a value"));
          }
          check_expr_value(*stmt.value);
        } else if (stmt.value) {
          sema_error(stmt.loc, cat("void function '", current_function_->name,
                                   "' cannot return a value"));
        }
        break;
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        if (loop_depth_ == 0) {
          sema_error(stmt.loc, "break/continue outside of a loop");
        }
        break;
      case Stmt::Kind::kExpr:
        // Calls may discard their value; anything else is checked as value.
        if (stmt.value->kind == Expr::Kind::kCall) {
          check_call(*stmt.value, /*value_needed=*/false);
        } else {
          check_expr_value(*stmt.value);
        }
        break;
    }
  }

  void check_decl(Stmt& stmt) {
    SymbolInfo info;
    info.is_array = !stmt.dims.empty();
    info.is_const = stmt.is_const;
    info.dims = stmt.dims;
    if (stmt.dims.size() > 2) {
      sema_error(stmt.loc, "arrays of more than two dimensions are not "
                           "supported");
    }
    if (info.is_array) {
      std::int64_t total = 1;
      for (std::int64_t dim : stmt.dims) total *= dim;
      if (!stmt.init_list.empty() &&
          static_cast<std::int64_t>(stmt.init_list.size()) != total) {
        sema_error(stmt.loc,
                   cat("array '", stmt.name, "' has ", total,
                       " elements but its initializer provides ",
                       stmt.init_list.size()));
      }
      if (stmt.is_const && stmt.init_list.empty()) {
        sema_error(stmt.loc, cat("const array '", stmt.name,
                                 "' requires an initializer"));
      }
    } else {
      if (stmt.is_const && !stmt.value) {
        sema_error(stmt.loc, cat("const variable '", stmt.name,
                                 "' requires an initializer"));
      }
      if (stmt.value) check_expr_value(*stmt.value);
    }
    stmt.slot = declare(stmt.loc, stmt.name, std::move(info));
  }

  void check_assign(Stmt& stmt) {
    Expr& target = *stmt.target;
    if (target.kind == Expr::Kind::kVarRef) {
      const SymbolInfo& info = resolve(target);
      if (info.is_array) {
        sema_error(target.loc, cat("cannot assign to array '", target.name,
                                   "' as a whole"));
      }
      if (info.is_const) {
        sema_error(target.loc, cat("cannot assign to const '", target.name,
                                   "'"));
      }
    } else if (target.kind == Expr::Kind::kIndex) {
      const SymbolInfo& info = resolve(target);
      check_index(target, info);
      if (info.is_const) {
        sema_error(target.loc, cat("cannot store into const array '",
                                   target.name, "'"));
      }
    } else {
      sema_error(target.loc, "assignment target must be a variable or an "
                             "array element");
    }
    check_expr_value(*stmt.value);
  }

  // ---- expressions ------------------------------------------------------------
  void check_index(Expr& expr, const SymbolInfo& info) {
    if (!info.is_array) {
      sema_error(expr.loc, cat("'", expr.name, "' is not an array"));
    }
    const std::size_t expected = info.any_length ? 1 : info.dims.size();
    if (expr.indices.size() != expected) {
      sema_error(expr.loc, cat("array '", expr.name, "' expects ", expected,
                               " index(es), got ", expr.indices.size()));
    }
    for (const auto& index : expr.indices) check_expr_value(*index);
  }

  /// Checks a call and records the callee's index on `expr`.
  void check_call(Expr& expr, bool value_needed) {
    const auto it = functions_.find(expr.name);
    if (it == functions_.end()) {
      sema_error(expr.loc, cat("call to undefined function '", expr.name,
                               "'"));
    }
    expr.slot = it->second;
    const FuncDecl& callee = program_.functions[it->second];
    if (value_needed && !callee.returns_value) {
      sema_error(expr.loc, cat("void function '", expr.name,
                               "' used where a value is required"));
    }
    if (expr.args.size() != callee.params.size()) {
      sema_error(expr.loc,
                 cat("function '", expr.name, "' expects ",
                     callee.params.size(), " argument(s), got ",
                     expr.args.size()));
    }
    for (std::size_t i = 0; i < expr.args.size(); ++i) {
      Expr& arg = *expr.args[i];
      const ParamDecl& param = callee.params[i];
      if (param.is_array) {
        if (arg.kind != Expr::Kind::kVarRef) {
          sema_error(arg.loc, cat("argument ", i + 1, " of '", expr.name,
                                  "' must name an array"));
        }
        const SymbolInfo& info = resolve(arg);
        if (!info.is_array) {
          sema_error(arg.loc, cat("argument ", i + 1, " of '", expr.name,
                                  "' must be an array"));
        }
        // An int a[] parameter's dimensions are unknown here, so it can
        // only be passed on to another int a[] parameter.
        if (!param.dims.empty() && info.any_length) {
          sema_error(arg.loc, cat("array argument ", i + 1, " of '",
                                  expr.name, "' has unknown dimensions, but '",
                                  expr.name, "' declares them"));
        }
        if (!param.dims.empty() && info.dims != param.dims) {
          sema_error(arg.loc, cat("array argument ", i + 1, " of '",
                                  expr.name,
                                  "' has mismatching dimensions"));
        }
      } else {
        check_expr_value(arg);
      }
    }
    if (current_function_ != nullptr) {
      call_edges_.emplace(current_function_->name, expr.name);
    }
  }

  /// Checks an expression that must produce a scalar value.
  void check_expr_value(Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        break;
      case Expr::Kind::kVarRef: {
        const SymbolInfo& info = resolve(expr);
        if (info.is_array) {
          sema_error(expr.loc, cat("array '", expr.name,
                                   "' used where a scalar is required"));
        }
        break;
      }
      case Expr::Kind::kIndex:
        check_index(expr, resolve(expr));
        break;
      case Expr::Kind::kUnary:
        check_expr_value(*expr.lhs);
        break;
      case Expr::Kind::kBinary:
        check_expr_value(*expr.lhs);
        check_expr_value(*expr.rhs);
        break;
      case Expr::Kind::kCall:
        check_call(expr, /*value_needed=*/true);
        break;
    }
  }

  // ---- recursion ---------------------------------------------------------------
  void check_recursion() const {
    // DFS over the call graph; a back edge means (mutual) recursion, which
    // the inlining lowering cannot express.
    std::map<std::string, int> state;  // 0 new, 1 open, 2 done
    for (const auto& [name, function] : functions_) {
      if (state[name] == 0) dfs_recursion(name, state);
    }
  }

  void dfs_recursion(const std::string& name,
                     std::map<std::string, int>& state) const {
    state[name] = 1;
    const auto [begin, end] = call_edges_.equal_range(name);
    for (auto it = begin; it != end; ++it) {
      const std::string& callee = it->second;
      if (state[callee] == 1) {
        fail(cat("semantic error: recursion detected through function '",
                 callee, "' (MiniC inlines all calls)"));
      }
      if (state[callee] == 0) dfs_recursion(callee, state);
    }
    state[name] = 2;
  }

  Program& program_;
  bool require_main_;
  std::map<std::string, int> functions_;  ///< name -> index in functions
  std::vector<std::map<std::string, SymbolInfo>> scopes_;
  int next_slot_ = 0;
  std::multimap<std::string, std::string> call_edges_;
  const FuncDecl* current_function_ = nullptr;
  int loop_depth_ = 0;
};

}  // namespace

void check_program(Program& program, bool require_main) {
  Checker(program, require_main).run();
}

}  // namespace amdrel::minic
