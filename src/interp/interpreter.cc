#include "interp/interpreter.h"

#include <optional>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::interp {

namespace {

using ir::OpKind;
using ir::wrap;

// The error of a binary op ir::eval_binary refused, built only on this
// failure path.
[[noreturn]] void trap(OpKind op, std::int32_t b) {
  if (op == OpKind::kDiv) {
    fail(b == 0 ? "interpreter: division by zero"
                : "interpreter: INT_MIN / -1");
  }
  if (op == OpKind::kMod) {
    fail(b == 0 ? "interpreter: modulo by zero"
                : "interpreter: INT_MIN % -1");
  }
  fail(cat("interpreter: '", ir::op_name(op), "' is not a binary op"));
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
        default: {
          const std::int32_t b = regs[instr.src2];
          const std::optional<std::int32_t> value =
              ir::eval_binary(instr.op, regs[instr.src1], b);
          if (!value) trap(instr.op, b);
          regs[instr.dst] = *value;
          break;
        }
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
