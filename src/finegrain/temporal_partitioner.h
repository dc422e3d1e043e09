#pragma once

#include <vector>

#include "ir/dfg.h"
#include "platform/fpga_model.h"

namespace amdrel::finegrain {

/// Result of the paper's Figure-3 temporal partitioning: every schedulable
/// DFG node is assigned to a 1-based partition index; the fine-grain
/// hardware is time-shared by loading one partition (configuration) at a
/// time, in increasing index order.
struct TemporalPartitioning {
  /// partition_of[node] in 1..num_partitions, or 0 for structural nodes
  /// (inputs/consts/outputs) that occupy no fabric.
  std::vector<int> partition_of;
  int num_partitions = 0;
  /// Area occupied by each partition (index 0 unused).
  std::vector<double> partition_area;
};

/// The schedulable nodes of a DFG in (ASAP level, id) order: the order in
/// which both mappers visit them. Built by one ASAP pass and a counting
/// sort over levels.
struct LevelOrder {
  std::vector<int> levels;  ///< dfg.asap_levels(): 0 for structural nodes
  std::vector<ir::NodeId> nodes;  ///< schedulable nodes by (level, id)
  /// Nodes of level L are nodes[level_start[L] .. level_start[L + 1]);
  /// level 0 is empty, and the last level is level_start.size() - 2.
  std::vector<int> level_start;
};

LevelOrder level_order(const ir::Dfg& dfg);

/// The mapping algorithm of paper Figure 3, verbatim semantics: nodes are
/// visited ASAP level by ASAP level (exposing the DFG's parallelism) and
/// greedily packed into the available area A_FPGA; when an operation no
/// longer fits, a new temporal partition is opened and the node starts it.
///
/// Note on the pseudocode: the paper's listing shows `level = level + 1`
/// inside the for-loop due to a typesetting slip; the intended (and here
/// implemented) semantics advances the level after all nodes of the
/// current level were assigned, which is also what the surrounding text
/// describes.
///
/// Throws Error if a single operation exceeds A_FPGA (no partitioning can
/// make it fit).
TemporalPartitioning partition_dfg(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga);
/// As above, over an `order` the caller already built from `dfg`.
TemporalPartitioning partition_dfg(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const LevelOrder& order);

/// Alternative mapper (ablation study): list-based packing. Where the
/// Figure-3 algorithm closes a partition as soon as one node of the
/// current ASAP level overflows, this variant keeps filling the open
/// partition with any *ready* node (all predecessors already placed) that
/// still fits, pulling work from later levels forward. It never produces
/// more partitions than Figure 3 and often fewer; the price is a packing
/// order that no longer mirrors pure level order. Compare with Ablation D
/// in examples/paper_tables.
TemporalPartitioning partition_dfg_list(const ir::Dfg& dfg,
                                        const platform::FpgaModel& fpga);
/// As above, over an `order` the caller already built from `dfg`.
TemporalPartitioning partition_dfg_list(const ir::Dfg& dfg,
                                        const platform::FpgaModel& fpga,
                                        const LevelOrder& order);

}  // namespace amdrel::finegrain
