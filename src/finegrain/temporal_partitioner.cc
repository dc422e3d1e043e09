#include "finegrain/temporal_partitioner.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::finegrain {

LevelOrder level_order(const ir::Dfg& dfg) {
  LevelOrder order;
  order.levels = dfg.asap_levels();
  const std::vector<int>& levels = order.levels;
  const int max_level =
      levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
  // Counting sort: level_start[L + 1] first counts level L's nodes.
  order.level_start.assign(static_cast<std::size_t>(max_level) + 2, 0);
  for (const int level : levels) {
    if (level > 0) order.level_start[level + 1]++;
  }
  for (std::size_t l = 1; l < order.level_start.size(); ++l) {
    order.level_start[l] += order.level_start[l - 1];
  }
  order.nodes.resize(order.level_start.back());
  // Placing a node advances its level's start to the next level's start;
  // shifting the starts up one slot afterwards restores them.
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    if (levels[id] > 0) order.nodes[order.level_start[levels[id]]++] = id;
  }
  std::copy_backward(order.level_start.begin(), order.level_start.end() - 1,
                     order.level_start.end());
  order.level_start[0] = 0;
  return order;
}

TemporalPartitioning partition_dfg(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga) {
  return partition_dfg(dfg, fpga, level_order(dfg));
}

TemporalPartitioning partition_dfg(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const LevelOrder& order) {
  TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);  // index 0 unused; start partition 1

  int current = 1;
  double area_covered = 0.0;

  for (const ir::NodeId id : order.nodes) {
    const ir::Dfg::Node& node = dfg.node(id);
    const double current_area = fpga.area(node.kind);
    if (!(current_area <= fpga.usable_area)) {
      fail(cat("temporal partitioning: operation '", ir::op_name(node.kind),
               "' (area ", current_area, ") exceeds A_FPGA = ",
               fpga.usable_area));
    }
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

  result.num_partitions = order.nodes.empty() ? 0 : current;
  result.partition_area.resize(result.num_partitions + 1);
  return result;
}

TemporalPartitioning partition_dfg_list(const ir::Dfg& dfg,
                                        const platform::FpgaModel& fpga) {
  return partition_dfg_list(dfg, fpga, level_order(dfg));
}

TemporalPartitioning partition_dfg_list(const ir::Dfg& dfg,
                                        const platform::FpgaModel& fpga,
                                        const LevelOrder& order) {
  TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);

  // Schedulable nodes ordered by (ASAP level, id): the priority list.
  const std::vector<ir::NodeId>& priority = order.nodes;

  std::vector<bool> placed(dfg.size(), false);
  auto ready = [&](ir::NodeId id) {
    for (ir::NodeId pred : dfg.node(id).operands()) {
      if (ir::is_schedulable(dfg.node(pred).kind) && !placed[pred]) {
        return false;
      }
    }
    return true;
  };

  int current = 1;
  double area_covered = 0.0;
  std::size_t remaining = priority.size();
  while (remaining > 0) {
    bool placed_any = false;
    for (ir::NodeId id : priority) {
      if (placed[id] || !ready(id)) continue;
      const double area = fpga.area(dfg.node(id).kind);
      if (!(area <= fpga.usable_area)) {
        fail(cat("list temporal partitioning: operation '",
                 ir::op_name(dfg.node(id).kind), "' (area ", area,
                 ") exceeds A_FPGA = ", fpga.usable_area));
      }
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
  result.num_partitions = priority.empty() ? 0 : current;
  result.partition_area.resize(result.num_partitions + 1);
  return result;
}

}  // namespace amdrel::finegrain
