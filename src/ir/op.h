#pragma once

#include <cstdint>
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
