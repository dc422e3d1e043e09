#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minic/token.h"

namespace amdrel::minic {

/// MiniC is the C subset the front-end accepts — rich enough for the
/// paper's DSP/multimedia workloads (32-bit ints, fixed-size const/plain
/// arrays up to 2-D, functions, loops, full expression grammar with
/// short-circuit && and ||), and deliberately without pointers, structs
/// or recursion so every program lowers to one flat CDFG the methodology
/// consumes (the paper's SUIF-based flow made the same assumptions for
/// the code handed to the partitioner).

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLogicalAnd, kLogicalOr,
};

enum class UnaryOp : std::uint8_t {
  kNeg,         // -x
  kBitNot,      // ~x
  kLogicalNot,  // !x
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t {
    kIntLit,   ///< value
    kVarRef,   ///< name
    kIndex,    ///< name[indices...]
    kUnary,    ///< un_op lhs
    kBinary,   ///< lhs bin_op rhs
    kCall,     ///< name(args...)
  };

  Kind kind = Kind::kIntLit;
  SourceLoc loc;

  std::int64_t value = 0;             // kIntLit
  std::string name;                   // kVarRef / kIndex / kCall
  std::vector<ExprPtr> indices;       // kIndex
  std::vector<ExprPtr> args;          // kCall
  UnaryOp un_op = UnaryOp::kNeg;      // kUnary
  BinaryOp bin_op = BinaryOp::kAdd;   // kBinary
  ExprPtr lhs;                        // kUnary operand / kBinary lhs
  ExprPtr rhs;                        // kBinary rhs
  int slot = -1;  ///< set by check_program: kVarRef / kIndex the
                  ///< declaration's slot, kCall the callee's index
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind : std::uint8_t {
    kBlock,     ///< body
    kDecl,      ///< name, dims, is_const, init / init_list
    kAssign,    ///< target (= | op=) value
    kIf,        ///< cond, then_stmt, else_stmt?
    kWhile,     ///< cond, body_stmt
    kDoWhile,   ///< body_stmt, cond
    kFor,       ///< for_init?, cond?, for_step?, body_stmt
    kReturn,    ///< value?
    kBreak,
    kContinue,
    kExpr,      ///< value (expression evaluated for effect, i.e. a call)
  };

  Kind kind = Kind::kBlock;
  SourceLoc loc;

  std::vector<StmtPtr> body;                 // kBlock
  std::string name;                          // kDecl
  bool is_const = false;                     // kDecl
  std::vector<std::int64_t> dims;            // kDecl: empty => scalar
  std::vector<std::int64_t> init_list;       // kDecl: array initializer
  ExprPtr target;                            // kAssign (VarRef or Index)
  std::optional<BinaryOp> compound;          // kAssign: nullopt for plain =
  ExprPtr value;                             // kAssign / kReturn / kExpr /
                                             // kDecl scalar init
  ExprPtr cond;                              // kIf / kWhile / kDoWhile / kFor
  StmtPtr then_stmt;                         // kIf
  StmtPtr else_stmt;                         // kIf (may be null)
  StmtPtr body_stmt;                         // loops
  StmtPtr for_init;                          // kFor (kDecl or kAssign)
  StmtPtr for_step;                          // kFor (kAssign or kExpr)
  int slot = -1;                             // kDecl: set by check_program
};

struct ParamDecl {
  std::string name;
  bool is_array = false;
  /// Declared dimensions; for 1-D parameters an empty vector means
  /// "int a[]" (accepts any length). Multi-dimensional parameters must
  /// declare all dimensions so indexing can be flattened.
  std::vector<std::int64_t> dims;
  SourceLoc loc;
  int slot = -1;  ///< set by check_program
};

struct FuncDecl {
  std::string name;
  bool returns_value = false;  ///< int f() vs void f()
  std::vector<ParamDecl> params;
  StmtPtr body;
  SourceLoc loc;
};

struct Program {
  std::vector<StmtPtr> globals;  ///< kDecl statements
  std::vector<FuncDecl> functions;
  int slot_count = 0;   ///< set by check_program: declaration slots used
  int main_index = -1;  ///< set by check_program: main in `functions`
};

}  // namespace amdrel::minic
