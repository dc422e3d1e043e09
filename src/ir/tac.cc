#include "ir/tac.h"

#include <sstream>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::ir {

namespace {

bool is_tac_body_op(OpKind op) {
  switch (op) {
    case OpKind::kInput:
    case OpKind::kOutput:
      return false;  // structural DFG-only kinds never appear in TAC
    default:
      return true;
  }
}

}  // namespace

int TacProgram::find_array(const std::string& array_name) const {
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (arrays[i].name == array_name) return static_cast<int>(i);
  }
  return -1;
}

void TacProgram::validate() const {
  require(entry >= 0 && entry < static_cast<BlockId>(blocks.size()),
          "TacProgram::validate: bad entry block");
  auto check_reg = [&](int reg, const char* what) {
    require(reg >= 0 && reg < num_regs,
            "TacProgram::validate: bad ", what, " register ", reg);
  };
  auto check_block = [&](BlockId b) {
    require(b >= 0 && b < static_cast<BlockId>(blocks.size()),
            "TacProgram::validate: bad target block ", b);
  };
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const TacBlock& block = blocks[bi];
    require(block.id == static_cast<BlockId>(bi),
            "TacProgram::validate: block ", bi, " id mismatch");
    for (const TacInstr& instr : block.body) {
      if (!is_tac_body_op(instr.op)) {
        fail(cat("TacProgram::validate: structural op '", op_name(instr.op),
                 "' in TAC body"));
      }
      switch (instr.op) {
        case OpKind::kConst:
          check_reg(instr.dst, "dst");
          break;
        case OpKind::kCopy:
        case OpKind::kNot:
        case OpKind::kNeg:
          check_reg(instr.dst, "dst");
          check_reg(instr.src1, "src1");
          break;
        case OpKind::kLoad:
          check_reg(instr.dst, "dst");
          check_reg(instr.src1, "index");
          require(instr.array >= 0 &&
                      instr.array < static_cast<int>(arrays.size()),
                  "TacProgram::validate: load from bad array");
          break;
        case OpKind::kStore:
          require(instr.dst == -1, "TacProgram::validate: bad dst register ",
                  instr.dst);
          check_reg(instr.src1, "index");
          check_reg(instr.src2, "value");
          require(instr.array >= 0 &&
                      instr.array < static_cast<int>(arrays.size()),
                  "TacProgram::validate: store to bad array");
          require(!arrays[instr.array].is_const,
                  "TacProgram::validate: store to const array '",
                  arrays[instr.array].name, "'");
          break;
        default:  // binary arithmetic
          check_reg(instr.dst, "dst");
          check_reg(instr.src1, "src1");
          check_reg(instr.src2, "src2");
          break;
      }
    }
    switch (block.term.kind) {
      case Terminator::Kind::kJmp:
        check_block(block.term.if_true);
        break;
      case Terminator::Kind::kBr:
        check_reg(block.term.cond_reg, "branch condition");
        check_block(block.term.if_true);
        check_block(block.term.if_false);
        break;
      case Terminator::Kind::kRet:
        if (block.term.ret_reg != -1) check_reg(block.term.ret_reg, "return");
        break;
    }
  }
  for (const ArraySymbol& array : arrays) {
    require(array.size > 0, "TacProgram::validate: array '", array.name,
            "' has non-positive size");
    require(array.init.empty() ||
                static_cast<std::int64_t>(array.init.size()) == array.size,
            "TacProgram::validate: array '", array.name,
            "' initializer size mismatch");
  }
}

std::string TacProgram::to_string() const {
  std::ostringstream os;
  os << "program " << name << " (regs: " << num_regs << ")\n";
  for (const ArraySymbol& array : arrays) {
    os << "  array " << array.name << "[" << array.size << "]"
       << (array.is_const ? " const" : "") << "\n";
  }
  auto reg = [&](int r) {
    if (r >= 0 && r < static_cast<int>(reg_names.size()) &&
        !reg_names[r].empty()) {
      return cat("%", r, ":", reg_names[r]);
    }
    return cat("%", r);
  };
  for (const TacBlock& block : blocks) {
    os << block.name << ":  ; id " << block.id
       << (block.id == entry ? " (entry)" : "") << "\n";
    for (const TacInstr& instr : block.body) {
      os << "  ";
      switch (instr.op) {
        case OpKind::kConst:
          os << reg(instr.dst) << " = " << instr.imm;
          break;
        case OpKind::kCopy:
          os << reg(instr.dst) << " = " << reg(instr.src1);
          break;
        case OpKind::kNot:
        case OpKind::kNeg:
          os << reg(instr.dst) << " = " << op_name(instr.op) << " "
             << reg(instr.src1);
          break;
        case OpKind::kLoad:
          os << reg(instr.dst) << " = " << arrays[instr.array].name << "["
             << reg(instr.src1) << "]";
          break;
        case OpKind::kStore:
          os << arrays[instr.array].name << "[" << reg(instr.src1)
             << "] = " << reg(instr.src2);
          break;
        default:
          os << reg(instr.dst) << " = " << op_name(instr.op) << " "
             << reg(instr.src1) << ", " << reg(instr.src2);
          break;
      }
      os << "\n";
    }
    switch (block.term.kind) {
      case Terminator::Kind::kJmp:
        os << "  jmp bb" << block.term.if_true << "\n";
        break;
      case Terminator::Kind::kBr:
        os << "  br " << reg(block.term.cond_reg) << ", bb"
           << block.term.if_true << ", bb" << block.term.if_false << "\n";
        break;
      case Terminator::Kind::kRet:
        os << "  ret";
        if (block.term.ret_reg != -1) os << " " << reg(block.term.ret_reg);
        os << "\n";
        break;
    }
  }
  return os.str();
}

}  // namespace amdrel::ir
