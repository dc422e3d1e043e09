#include "interp/interpreter.h"

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::interp {

namespace {

using ir::OpKind;

std::int32_t wrap(std::int64_t value) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(value));
}

std::int32_t eval_binary(OpKind op, std::int32_t a, std::int32_t b) {
  switch (op) {
    case OpKind::kAdd: return wrap(std::int64_t{a} + b);
    case OpKind::kSub: return wrap(std::int64_t{a} - b);
    case OpKind::kMul: return wrap(std::int64_t{a} * b);
    case OpKind::kDiv:
      require(b != 0, "interpreter: division by zero");
      require(!(a == INT32_MIN && b == -1), "interpreter: INT_MIN / -1");
      return a / b;
    case OpKind::kMod:
      require(b != 0, "interpreter: modulo by zero");
      require(!(a == INT32_MIN && b == -1), "interpreter: INT_MIN % -1");
      return a % b;
    case OpKind::kAnd: return a & b;
    case OpKind::kOr: return a | b;
    case OpKind::kXor: return a ^ b;
    case OpKind::kShl: return wrap(std::int64_t{a} << (b & 31));
    case OpKind::kShr: return a >> (b & 31);  // arithmetic, like C on ints
    case OpKind::kCmpEq: return a == b;
    case OpKind::kCmpNe: return a != b;
    case OpKind::kCmpLt: return a < b;
    case OpKind::kCmpLe: return a <= b;
    case OpKind::kCmpGt: return a > b;
    case OpKind::kCmpGe: return a >= b;
    default:
      fail(cat("interpreter: '", ir::op_name(op), "' is not a binary op"));
  }
}

}  // namespace

Interpreter::Interpreter(ir::TacProgram program)
    : program_(std::move(program)) {
  program_.validate();
  storage_.resize(program_.arrays.size());
}

void Interpreter::set_input(const std::string& array_name,
                            const std::vector<std::int32_t>& values) {
  const int index = program_.find_array(array_name);
  require(index >= 0,
          "interpreter: no array named '", array_name, "'");
  const ir::ArraySymbol& symbol = program_.arrays[index];
  require(!symbol.is_const, "interpreter: array '", array_name,
          "' is const and cannot be an input");
  require(static_cast<std::int64_t>(values.size()) <= symbol.size,
          "interpreter: input for '", array_name, "' has ",
          values.size(), " values but the array holds ", symbol.size);
  inputs_[array_name] = values;
}

const std::vector<std::int32_t>& Interpreter::array(
    const std::string& array_name) const {
  const int index = program_.find_array(array_name);
  require(index >= 0,
          "interpreter: no array named '", array_name, "'");
  return storage_[index];
}

RunResult Interpreter::run(std::uint64_t max_instructions) {
  // (Re)initialize memory.
  for (std::size_t i = 0; i < program_.arrays.size(); ++i) {
    const ir::ArraySymbol& symbol = program_.arrays[i];
    storage_[i].assign(static_cast<std::size_t>(symbol.size), 0);
    if (!symbol.init.empty()) {
      std::copy(symbol.init.begin(), symbol.init.end(), storage_[i].begin());
    }
    const auto input = inputs_.find(symbol.name);
    if (input != inputs_.end()) {
      std::copy(input->second.begin(), input->second.end(),
                storage_[i].begin());
    }
  }

  std::vector<std::int32_t> regs(
      static_cast<std::size_t>(program_.num_regs), 0);
  RunResult result;

  ir::BlockId block_id = program_.entry;
  while (true) {
    require(result.instructions_executed < max_instructions,
            "interpreter: instruction budget exceeded");
    const ir::TacBlock& block = program_.blocks[block_id];
    result.profile.increment(block_id);
    result.blocks_executed++;

    for (const ir::TacInstr& instr : block.body) {
      result.instructions_executed++;
      switch (instr.op) {
        case OpKind::kConst:
          regs[instr.dst] = wrap(instr.imm);
          break;
        case OpKind::kCopy:
          regs[instr.dst] = regs[instr.src1];
          break;
        case OpKind::kNot:
          regs[instr.dst] = ~regs[instr.src1];
          break;
        case OpKind::kNeg:
          regs[instr.dst] = wrap(-std::int64_t{regs[instr.src1]});
          break;
        case OpKind::kLoad: {
          const auto& memory = storage_[instr.array];
          const std::int32_t index = regs[instr.src1];
          require(index >= 0 &&
                      index < static_cast<std::int32_t>(memory.size()),
                  "interpreter: load out of bounds: ",
                  program_.arrays[instr.array].name, "[", index, "]");
          regs[instr.dst] = memory[index];
          break;
        }
        case OpKind::kStore: {
          auto& memory = storage_[instr.array];
          const std::int32_t index = regs[instr.src1];
          require(index >= 0 &&
                      index < static_cast<std::int32_t>(memory.size()),
                  "interpreter: store out of bounds: ",
                  program_.arrays[instr.array].name, "[", index, "]");
          memory[index] = regs[instr.src2];
          break;
        }
        default:
          regs[instr.dst] =
              eval_binary(instr.op, regs[instr.src1], regs[instr.src2]);
          break;
      }
    }

    const ir::Terminator& term = block.term;
    switch (term.kind) {
      case ir::Terminator::Kind::kJmp:
        block_id = term.if_true;
        break;
      case ir::Terminator::Kind::kBr:
        block_id = regs[term.cond_reg] != 0 ? term.if_true : term.if_false;
        break;
      case ir::Terminator::Kind::kRet:
        if (term.ret_reg != -1) result.return_value = regs[term.ret_reg];
        return result;
    }
  }
}

}  // namespace amdrel::interp
