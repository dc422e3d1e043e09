#include "ir/build_cdfg.h"

#include <map>
#include <set>
#include <string>

#include "support/error.h"

namespace amdrel::ir {

namespace {

/// Registers read in a block before any local write (upward-exposed uses):
/// the values the block consumes from its predecessors.
std::set<int> upward_exposed_uses(const TacBlock& block) {
  std::set<int> defined;
  std::set<int> exposed;
  auto use = [&](int reg) {
    if (reg >= 0 && defined.find(reg) == defined.end()) exposed.insert(reg);
  };
  for (const TacInstr& instr : block.body) {
    switch (instr.op) {
      case OpKind::kConst:
        break;
      case OpKind::kCopy:
      case OpKind::kNot:
      case OpKind::kNeg:
      case OpKind::kLoad:
        use(instr.src1);
        break;
      case OpKind::kStore:
        use(instr.src1);
        use(instr.src2);
        break;
      default:
        use(instr.src1);
        use(instr.src2);
        break;
    }
    if (instr.dst >= 0) defined.insert(instr.dst);
  }
  if (block.term.kind == Terminator::Kind::kBr) use(block.term.cond_reg);
  if (block.term.kind == Terminator::Kind::kRet) use(block.term.ret_reg);
  return exposed;
}

}  // namespace

Cdfg build_cdfg(const TacProgram& program) {
  program.validate();
  Cdfg cdfg(program.name);

  // Which registers are consumed from outside by at least one block; a
  // definition reaching the end of a different block must then be treated
  // as live-out (may-live approximation, conservative in the right
  // direction for communication costs).
  std::vector<std::set<int>> exposed(program.blocks.size());
  for (std::size_t i = 0; i < program.blocks.size(); ++i) {
    exposed[i] = upward_exposed_uses(program.blocks[i]);
  }

  for (const TacBlock& tac_block : program.blocks) {
    const BlockId id = cdfg.add_block(tac_block.name);
    require(id == tac_block.id, "build_cdfg: block ids must be dense");
    Dfg& dfg = cdfg.block(id).dfg;

    std::map<int, NodeId> last_def;   // register -> defining node in block
    std::map<int, NodeId> live_in;    // register -> kInput node in block
    auto reg_label = [&](int reg) {
      if (reg < static_cast<int>(program.reg_names.size()) &&
          !program.reg_names[reg].empty()) {
        return program.reg_names[reg];
      }
      return "%" + std::to_string(reg);
    };
    auto value_of = [&](int reg) -> NodeId {
      if (const auto it = last_def.find(reg); it != last_def.end()) {
        return it->second;
      }
      if (const auto it = live_in.find(reg); it != live_in.end()) {
        return it->second;
      }
      const NodeId input =
          dfg.add_node(OpKind::kInput, {}, reg_label(reg));
      live_in.emplace(reg, input);
      return input;
    };

    for (const TacInstr& instr : tac_block.body) {
      NodeId node = kNoNode;
      switch (instr.op) {
        case OpKind::kConst:
          node = dfg.add_const(instr.imm, reg_label(instr.dst));
          break;
        case OpKind::kCopy:
        case OpKind::kNot:
        case OpKind::kNeg:
          node = dfg.add_node(instr.op, {value_of(instr.src1)},
                              reg_label(instr.dst));
          break;
        case OpKind::kLoad:
          node = dfg.add_node(instr.op, {value_of(instr.src1)},
                              program.arrays[instr.array].name);
          break;
        case OpKind::kStore:
          node = dfg.add_node(
              instr.op, {value_of(instr.src1), value_of(instr.src2)},
              program.arrays[instr.array].name);
          break;
        default:
          node = dfg.add_node(instr.op,
                              {value_of(instr.src1), value_of(instr.src2)},
                              reg_label(instr.dst));
          break;
      }
      if (instr.dst >= 0) last_def[instr.dst] = node;
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
    // Live-out markers: final local definitions of registers that some
    // block consumes from outside.
    for (const auto& [reg, node] : last_def) {
      bool consumed_elsewhere = false;
      for (std::size_t other = 0; other < exposed.size(); ++other) {
        if (static_cast<BlockId>(other) == id) {
          // A register can flow around a loop back into its own block.
          consumed_elsewhere |= exposed[other].count(reg) > 0 &&
                                last_def.find(reg) != last_def.end() &&
                                live_in.count(reg) > 0;
        } else {
          consumed_elsewhere |= exposed[other].count(reg) > 0;
        }
        if (consumed_elsewhere) break;
      }
      if (consumed_elsewhere) {
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
