#include "ir/build_cdfg.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "support/error.h"

namespace amdrel::ir {

namespace {

// Room reserved per TAC instruction of a block: its own node plus the
// block's share of inputs and live-out markers, and a short label each.
constexpr std::size_t kNodesPerInstr = 2;
constexpr std::size_t kLabelCharsPerInstr = 8;

}  // namespace

Cdfg build_cdfg(const TacProgram& program) {
  program.validate();
  Cdfg cdfg(program.name);
  cdfg.reserve(static_cast<BlockId>(program.blocks.size()));

  // A register's label: its source name, or "%N" for a temporary,
  // formatted in `temp_name` and valid until the next call.
  char temp_name[16] = {'%'};
  auto reg_label = [&](int reg) -> std::string_view {
    if (reg < static_cast<int>(program.reg_names.size()) &&
        !program.reg_names[reg].empty()) {
      return program.reg_names[reg];
    }
    const char* end =
        std::to_chars(temp_name + 1, temp_name + sizeof temp_name, reg).ptr;
    return {temp_name, static_cast<std::size_t>(end - temp_name)};
  };

  // Per-register tables, sized once and reset after each block through
  // the registers it touched.
  const auto regs = static_cast<std::size_t>(program.num_regs);
  std::vector<NodeId> last_def(regs, kNoNode);  // defining node in block
  std::vector<NodeId> live_in(regs, kNoNode);   // kInput node in block
  std::vector<int> defined;                     // registers with last_def
  std::vector<int> inputs;                      // registers with live_in
  // exposed[reg]: some block reads `reg` before writing it, i.e. gave it
  // a kInput node.
  std::vector<bool> exposed(regs, false);
  // Each block's final local definitions as (register, node), in
  // ascending register order: block b's are
  // finals[finals_start[b] .. finals_start[b + 1]).
  std::vector<std::pair<int, NodeId>> finals;
  std::vector<std::size_t> finals_start = {0};

  for (const TacBlock& tac_block : program.blocks) {
    const BlockId id = cdfg.add_block(tac_block.name);
    require(id == tac_block.id, "build_cdfg: block ids must be dense");
    Dfg& dfg = cdfg.block(id).dfg;
    dfg.reserve(kNodesPerInstr * tac_block.body.size(),
                kLabelCharsPerInstr * tac_block.body.size());

    auto value_of = [&](int reg) -> NodeId {
      if (last_def[reg] != kNoNode) return last_def[reg];
      if (live_in[reg] != kNoNode) return live_in[reg];
      const NodeId input =
          dfg.add_node(OpKind::kInput, {}, reg_label(reg));
      live_in[reg] = input;
      inputs.push_back(reg);
      exposed[reg] = true;
      return input;
    };

    // Operands are looked up before the label is formatted: a live-in
    // operand formats its own input's label.
    for (const TacInstr& instr : tac_block.body) {
      NodeId node = kNoNode;
      switch (instr.op) {
        case OpKind::kConst:
          node = dfg.add_const(instr.imm, reg_label(instr.dst));
          break;
        case OpKind::kCopy:
        case OpKind::kNot:
        case OpKind::kNeg: {
          const NodeId src = value_of(instr.src1);
          node = dfg.add_node(instr.op, {src}, reg_label(instr.dst));
          break;
        }
        case OpKind::kLoad:
          node = dfg.add_node(instr.op, {value_of(instr.src1)},
                              program.arrays[instr.array].name);
          break;
        case OpKind::kStore:
          node = dfg.add_node(
              instr.op, {value_of(instr.src1), value_of(instr.src2)},
              program.arrays[instr.array].name);
          break;
        default: {
          const NodeId lhs = value_of(instr.src1);
          const NodeId rhs = value_of(instr.src2);
          node = dfg.add_node(instr.op, {lhs, rhs}, reg_label(instr.dst));
          break;
        }
      }
      if (instr.dst >= 0) {
        if (last_def[instr.dst] == kNoNode) defined.push_back(instr.dst);
        last_def[instr.dst] = node;
      }
    }
    // The branch condition is consumed by the block's controller; make
    // sure a live-in condition still surfaces as an input value.
    if (tac_block.term.kind == Terminator::Kind::kBr) {
      (void)value_of(tac_block.term.cond_reg);
    }
    if (tac_block.term.kind == Terminator::Kind::kRet &&
        tac_block.term.ret_reg != -1) {
      (void)value_of(tac_block.term.ret_reg);
    }
    std::sort(defined.begin(), defined.end());
    for (const int reg : defined) {
      finals.emplace_back(reg, last_def[reg]);
      last_def[reg] = kNoNode;
    }
    for (const int reg : inputs) live_in[reg] = kNoNode;
    defined.clear();
    inputs.clear();
    finals_start.push_back(finals.size());
  }

  // Live-out markers: final local definitions of registers that some
  // block consumes from outside (may-live approximation, conservative in
  // the right direction for communication costs). The defining block
  // counts too: a value can flow around a loop back into its own block.
  for (BlockId b = 0; b < cdfg.size(); ++b) {
    Dfg& dfg = cdfg.block(b).dfg;
    for (std::size_t k = finals_start[b]; k < finals_start[b + 1]; ++k) {
      const auto [reg, node] = finals[k];
      if (exposed[reg]) {
        dfg.add_node(OpKind::kOutput, {node}, reg_label(reg));
      }
    }
  }

  for (const TacBlock& tac_block : program.blocks) {
    switch (tac_block.term.kind) {
      case Terminator::Kind::kJmp:
        cdfg.add_edge(tac_block.id, tac_block.term.if_true);
        break;
      case Terminator::Kind::kBr:
        cdfg.add_edge(tac_block.id, tac_block.term.if_true);
        cdfg.add_edge(tac_block.id, tac_block.term.if_false);
        break;
      case Terminator::Kind::kRet:
        break;
    }
  }
  cdfg.set_entry(program.entry);
  cdfg.analyze_loops();
  cdfg.validate();
  return cdfg;
}

}  // namespace amdrel::ir
