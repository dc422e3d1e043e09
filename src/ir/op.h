#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace amdrel::ir {

/// Operation kinds appearing as data-flow graph nodes. The arithmetic
/// subset mirrors what the MiniC front-end can produce; kInput / kOutput /
/// kConst are structural nodes marking basic-block live-ins, live-outs and
/// immediate operands.
enum class OpKind : std::uint8_t {
  // ALU class (weight 1 in the paper's analysis step)
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kNot,
  kNeg,
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  // Multiplier class (weight 2)
  kMul,
  // Divider class (absent from the paper's DFGs; unsupported on the CGC)
  kDiv,
  kMod,
  // Shared-data-memory accesses
  kLoad,
  kStore,
  // Structural / zero-cost
  kConst,   ///< immediate operand
  kCopy,    ///< register move (wiring)
  kInput,   ///< value produced outside this basic block
  kOutput,  ///< marker: value consumed outside this basic block
};

/// Coarse classification used by the cost models. The paper weights ALU
/// operations 1 and multiplications 2, and counts memory accesses as part
/// of a block's computational complexity.
enum class OpClass : std::uint8_t {
  kAlu,
  kMul,
  kDiv,
  kMem,
  kMeta,  ///< const/copy/input/output: no computational weight
};

constexpr OpClass op_class(OpKind kind) {
  switch (kind) {
    case OpKind::kMul:
      return OpClass::kMul;
    case OpKind::kDiv:
    case OpKind::kMod:
      return OpClass::kDiv;
    case OpKind::kLoad:
    case OpKind::kStore:
      return OpClass::kMem;
    case OpKind::kConst:
    case OpKind::kCopy:
    case OpKind::kInput:
    case OpKind::kOutput:
      return OpClass::kMeta;
    default:
      return OpClass::kAlu;
  }
}

/// Nodes that occupy fine-grain area and CGC slots and that receive an
/// ASAP level. Structural nodes (const/input/output) do not execute;
/// copies are treated as zero-cost wiring but still flow through the
/// schedule so value routing stays explicit.
constexpr bool is_schedulable(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:
    case OpKind::kInput:
    case OpKind::kOutput:
      return false;
    default:
      return true;
  }
}

/// Two's-complement truncation to 32 bits, the width of every TAC value.
inline std::int32_t wrap(std::int64_t value) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(value));
}

/// The 32-bit semantics of a binary TAC op, shared by the interpreter and
/// the optimizer's constant folding: add, sub, mul and shl wrap, shifts
/// take b & 31 (shr is arithmetic, like C on ints) and comparisons give
/// 0 or 1. nullopt on a trap (div or mod by zero, INT32_MIN / -1,
/// INT32_MIN % -1) and for an op that is not binary. Always inlined: GCC
/// returns the optional through the stack from an out-of-line call,
/// which made the interpreter loop about 60% slower.
[[gnu::always_inline]] inline std::optional<std::int32_t> eval_binary(
    OpKind op, std::int32_t a, std::int32_t b) {
  switch (op) {
    case OpKind::kAdd: return wrap(std::int64_t{a} + b);
    case OpKind::kSub: return wrap(std::int64_t{a} - b);
    case OpKind::kMul: return wrap(std::int64_t{a} * b);
    case OpKind::kDiv:
      if (b == 0 || (a == INT32_MIN && b == -1)) return std::nullopt;
      return a / b;
    case OpKind::kMod:
      if (b == 0 || (a == INT32_MIN && b == -1)) return std::nullopt;
      return a % b;
    case OpKind::kAnd: return a & b;
    case OpKind::kOr: return a | b;
    case OpKind::kXor: return a ^ b;
    case OpKind::kShl:
      return wrap(static_cast<std::uint32_t>(a) << (b & 31));
    case OpKind::kShr: return a >> (b & 31);
    case OpKind::kCmpEq: return a == b;
    case OpKind::kCmpNe: return a != b;
    case OpKind::kCmpLt: return a < b;
    case OpKind::kCmpLe: return a <= b;
    case OpKind::kCmpGt: return a > b;
    case OpKind::kCmpGe: return a >= b;
    default: return std::nullopt;
  }
}

constexpr std::string_view op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kAnd: return "and";
    case OpKind::kOr: return "or";
    case OpKind::kXor: return "xor";
    case OpKind::kShl: return "shl";
    case OpKind::kShr: return "shr";
    case OpKind::kNot: return "not";
    case OpKind::kNeg: return "neg";
    case OpKind::kCmpEq: return "cmpeq";
    case OpKind::kCmpNe: return "cmpne";
    case OpKind::kCmpLt: return "cmplt";
    case OpKind::kCmpLe: return "cmple";
    case OpKind::kCmpGt: return "cmpgt";
    case OpKind::kCmpGe: return "cmpge";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kMod: return "mod";
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kConst: return "const";
    case OpKind::kCopy: return "copy";
    case OpKind::kInput: return "input";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

}  // namespace amdrel::ir
