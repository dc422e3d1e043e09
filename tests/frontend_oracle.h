// The reference analysis stage the linear-time one is tested against:
// CDFG construction, loop analysis and Figure-3 fine-grain mapping as
// they stood before the dense per-register tables, the Cooper-Harvey-
// Kennedy immediate dominators and the single-ASAP-pass mapping, kept
// verbatim. build_cdfg scanned every block's upward-exposed set per
// live-out candidate, analyze_loops intersected sorted dominator sets
// and collected loop bodies in std::sets, and map_block_to_fpga ran
// three ASAP passes, a levels x nodes scan and a std::map per block.
// Every node, edge, loop, depth and mapping field they produce is the
// contract the product code must reproduce bit for bit.

#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "finegrain/fpga_mapper.h"
#include "finegrain/temporal_partitioner.h"
#include "ir/cdfg.h"
#include "ir/dfg.h"
#include "ir/tac.h"
#include "support/error.h"
#include "test_helpers.h"

namespace amdrel::oracle {

using ir::BlockId;
using ir::Cdfg;
using ir::Dfg;
using ir::kNoBlock;
using ir::kNoNode;
using ir::NodeId;
using ir::OpKind;
using ir::TacBlock;
using ir::TacInstr;
using ir::TacProgram;
using ir::Terminator;

/// Registers read in a block before any local write (upward-exposed uses):
/// the values the block consumes from its predecessors.
inline std::set<int> upward_exposed_uses(const TacBlock& block) {
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

/// The old ir::build_cdfg. Its final analyze_loops() call is the product
/// one; oracle::analyze_loops below checks that separately.
inline Cdfg build_cdfg(const TacProgram& program) {
  program.validate();
  Cdfg cdfg(program.name);

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
    if (tac_block.term.kind == Terminator::Kind::kBr) {
      (void)value_of(tac_block.term.cond_reg);
    }
    if (tac_block.term.kind == Terminator::Kind::kRet &&
        tac_block.term.ret_reg != -1) {
      (void)value_of(tac_block.term.ret_reg);
    }
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

/// The old Cdfg::dominators(): dominator sets via the classic iterative
/// data-flow algorithm (blocks unreachable from the entry dominate
/// nothing and are dominated by everything, per convention). Returns
/// dom[b] = sorted list of blocks dominating b (including b).
inline std::vector<std::vector<BlockId>> dominators(const Cdfg& cdfg) {
  const BlockId entry = cdfg.entry();
  require(entry != kNoBlock, "Cdfg::dominators: no entry block");
  const BlockId n = cdfg.size();
  std::vector<BlockId> all(n);
  for (BlockId i = 0; i < n; ++i) all[i] = i;
  std::vector<std::vector<BlockId>> dom(n, all);
  dom[entry] = {entry};

  const std::vector<BlockId> rpo = cdfg.reverse_post_order();
  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : rpo) {
      if (b == entry) continue;
      std::vector<BlockId> meet;
      bool first = true;
      for (BlockId p : cdfg.predecessors(b)) {
        if (first) {
          meet = dom[p];
          first = false;
        } else {
          std::vector<BlockId> tmp;
          std::set_intersection(meet.begin(), meet.end(), dom[p].begin(),
                                dom[p].end(), std::back_inserter(tmp));
          meet = std::move(tmp);
        }
      }
      auto it = std::lower_bound(meet.begin(), meet.end(), b);
      if (it == meet.end() || *it != b) meet.insert(it, b);
      if (meet != dom[b]) {
        dom[b] = std::move(meet);
        changed = true;
      }
    }
  }
  return dom;
}

inline bool dominates(const std::vector<std::vector<BlockId>>& dom,
                      BlockId a, BlockId b) {
  const auto& set = dom[b];
  return std::binary_search(set.begin(), set.end(), a);
}

/// What the old Cdfg::analyze_loops() left behind: the loops, sorted by
/// (header, latch), and every block's loop_depth.
struct LoopAnalysis {
  std::vector<ir::Loop> loops;
  std::vector<int> loop_depth;
};

inline LoopAnalysis analyze_loops(const Cdfg& cdfg) {
  LoopAnalysis result;
  result.loop_depth.assign(cdfg.size(), 0);
  std::vector<ir::Loop>& loops = result.loops;
  if (cdfg.entry() == kNoBlock) return result;

  const auto dom = dominators(cdfg);
  std::vector<bool> reachable(cdfg.size(), false);
  for (BlockId b : cdfg.reverse_post_order()) reachable[b] = true;

  for (BlockId u = 0; u < cdfg.size(); ++u) {
    if (!reachable[u]) continue;
    for (BlockId h : cdfg.successors(u)) {
      if (!dominates(dom, h, u)) continue;  // not a back edge
      std::set<BlockId> body = {h, u};
      std::vector<BlockId> work = {u};
      while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        if (b == h) continue;
        for (BlockId p : cdfg.predecessors(b)) {
          if (reachable[p] && body.insert(p).second) work.push_back(p);
        }
      }
      ir::Loop loop;
      loop.header = h;
      loop.latch = u;
      loop.body.assign(body.begin(), body.end());
      loops.push_back(std::move(loop));
    }
  }
  std::sort(loops.begin(), loops.end(),
            [](const ir::Loop& a, const ir::Loop& b) {
              if (a.header != b.header) return a.header < b.header;
              return a.latch < b.latch;
            });
  std::set<BlockId> seen_headers;
  for (const ir::Loop& loop : loops) {
    if (!seen_headers.insert(loop.header).second) continue;
    std::set<BlockId> body;
    for (const ir::Loop& other : loops) {
      if (other.header == loop.header) {
        body.insert(other.body.begin(), other.body.end());
      }
    }
    for (BlockId b : body) result.loop_depth[b]++;
  }
  return result;
}

/// The old Dfg::level_occupancy(): schedulable nodes per ASAP level
/// (index 0 unused).
inline std::vector<int> level_occupancy(const Dfg& dfg) {
  const std::vector<int> levels = dfg.asap_levels();
  std::vector<int> occupancy(
      static_cast<std::size_t>(test::max_asap_level(dfg)) + 1, 0);
  for (NodeId id = 0; id < dfg.size(); ++id) {
    if (ir::is_schedulable(dfg.node(id).kind)) occupancy[levels[id]]++;
  }
  return occupancy;
}

/// The old finegrain::partition_dfg (paper Figure 3).
inline finegrain::TemporalPartitioning partition_dfg(
    const Dfg& dfg, const platform::FpgaModel& fpga) {
  finegrain::TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);

  const std::vector<int> levels = dfg.asap_levels();
  const int max_level = test::max_asap_level(dfg);

  int current = 1;
  double area_covered = 0.0;
  bool any_node = false;

  for (int level = 1; level <= max_level; ++level) {
    for (NodeId id = 0; id < dfg.size(); ++id) {
      if (levels[id] != level) continue;
      const Dfg::Node& node = dfg.node(id);
      if (!ir::is_schedulable(node.kind)) continue;
      const double current_area = fpga.area(node.kind);
      require(current_area <= fpga.usable_area,
              "temporal partitioning: operation '", ir::op_name(node.kind),
              "' (area ", current_area, ") exceeds A_FPGA = ",
              fpga.usable_area);
      any_node = true;
      if (area_covered + current_area <= fpga.usable_area) {
        result.partition_of[id] = current;
        area_covered += current_area;
      } else {
        ++current;
        result.partition_of[id] = current;
        area_covered = current_area;
        result.partition_area.push_back(0.0);
      }
      result.partition_area[current] += current_area;
    }
  }

  result.num_partitions = any_node ? current : 0;
  result.partition_area.resize(result.num_partitions + 1);
  return result;
}

/// The old finegrain::partition_dfg_list (list packing), with its own
/// stable sort of the priority list.
inline finegrain::TemporalPartitioning partition_dfg_list(
    const Dfg& dfg, const platform::FpgaModel& fpga) {
  finegrain::TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);

  const std::vector<int> levels = dfg.asap_levels();

  std::vector<NodeId> order;
  for (NodeId id = 0; id < dfg.size(); ++id) {
    if (ir::is_schedulable(dfg.node(id).kind)) order.push_back(id);
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return levels[a] < levels[b];
  });

  std::vector<bool> placed(dfg.size(), false);
  auto ready = [&](NodeId id) {
    for (NodeId pred : dfg.node(id).operands()) {
      if (ir::is_schedulable(dfg.node(pred).kind) && !placed[pred]) {
        return false;
      }
    }
    return true;
  };

  int current = 1;
  double area_covered = 0.0;
  std::size_t remaining = order.size();
  while (remaining > 0) {
    bool placed_any = false;
    for (NodeId id : order) {
      if (placed[id] || !ready(id)) continue;
      const double area = fpga.area(dfg.node(id).kind);
      require(area <= fpga.usable_area,
              "list temporal partitioning: operation '",
              ir::op_name(dfg.node(id).kind), "' (area ", area,
              ") exceeds A_FPGA = ", fpga.usable_area);
      if (area_covered + area > fpga.usable_area) continue;
      placed[id] = true;
      result.partition_of[id] = current;
      area_covered += area;
      result.partition_area[current] += area;
      placed_any = true;
      --remaining;
    }
    if (remaining > 0 && !placed_any) {
      ++current;
      area_covered = 0.0;
      result.partition_area.push_back(0.0);
    }
  }
  result.num_partitions = order.empty() ? 0 : current;
  result.partition_area.resize(result.num_partitions + 1);
  return result;
}

/// The old finegrain::map_block_to_fpga.
inline finegrain::FpgaBlockMapping map_block_to_fpga(
    const Dfg& dfg, const platform::FpgaModel& fpga,
    const platform::MemoryModel& memory) {
  finegrain::FpgaBlockMapping mapping;
  mapping.partitioning = fpga.mapper == platform::FineMapper::kListPacking
                             ? partition_dfg_list(dfg, fpga)
                             : partition_dfg(dfg, fpga);

  const std::vector<int> levels = dfg.asap_levels();
  const std::vector<int>& part = mapping.partitioning.partition_of;

  std::map<std::pair<int, int>, std::pair<std::int64_t, std::int64_t>>
      level_cost;  // (partition, level) -> (sum delay, max delay)
  for (NodeId id = 0; id < dfg.size(); ++id) {
    const Dfg::Node& node = dfg.node(id);
    if (!ir::is_schedulable(node.kind)) continue;
    const std::int64_t delay = fpga.delay_cycles(node.kind);
    if (delay == 0) continue;  // copies are wiring
    auto& [sum_delay, max_delay] = level_cost[{part[id], levels[id]}];
    sum_delay += delay;
    max_delay = std::max(max_delay, delay);
  }
  const std::int64_t lanes = std::max(1, fpga.parallel_lanes);
  for (const auto& [key, group] : level_cost) {
    const auto [sum_delay, max_delay] = group;
    mapping.exec_cycles +=
        std::max(max_delay, (sum_delay + lanes - 1) / lanes);
  }
  if (!level_cost.empty()) {
    mapping.exec_cycles += fpga.invocation_overhead_cycles;
  }

  for (NodeId id = 0; id < dfg.size(); ++id) {
    if (part[id] == 0) continue;
    std::set<int> consumer_partitions;
    for (NodeId user : dfg.users(id)) {
      if (part[user] != 0 && part[user] != part[id]) {
        consumer_partitions.insert(part[user]);
      }
    }
    if (!consumer_partitions.empty()) {
      mapping.boundary_words +=
          1 + static_cast<std::int64_t>(consumer_partitions.size());
    }
  }
  mapping.boundary_cycles =
      mapping.boundary_words * memory.partition_boundary_cycles_per_word;

  const std::int64_t partitions = mapping.partitioning.num_partitions;
  switch (fpga.reconfig_policy) {
    case platform::ReconfigPolicy::kNone:
      break;
    case platform::ReconfigPolicy::kSwitchOnly:
      mapping.reconfigs_per_invocation = std::max<std::int64_t>(
          0, partitions - 1);
      break;
    case platform::ReconfigPolicy::kPerPartition:
      mapping.reconfigs_per_invocation = partitions;
      break;
    case platform::ReconfigPolicy::kAmortizedOnce:
      mapping.amortized_reconfigs = partitions;
      break;
  }
  return mapping;
}

}  // namespace amdrel::oracle
