#include "finegrain/temporal_partitioner.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::finegrain {

TemporalPartitioning partition_dfg(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga) {
  TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);  // index 0 unused; start partition 1

  const std::vector<int> levels = dfg.asap_levels();
  const int max_level = dfg.max_asap_level();

  int current = 1;
  double area_covered = 0.0;
  bool any_node = false;

  for (int level = 1; level <= max_level; ++level) {
    for (ir::NodeId id = 0; id < dfg.size(); ++id) {
      if (levels[id] != level) continue;
      const ir::Dfg::Node& node = dfg.node(id);
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

TemporalPartitioning partition_dfg_list(const ir::Dfg& dfg,
                                        const platform::FpgaModel& fpga) {
  TemporalPartitioning result;
  result.partition_of.assign(dfg.size(), 0);
  result.partition_area.assign(2, 0.0);

  const std::vector<int> levels = dfg.asap_levels();

  // Schedulable nodes ordered by (ASAP level, id): the priority list.
  std::vector<ir::NodeId> order;
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    if (ir::is_schedulable(dfg.node(id).kind)) order.push_back(id);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](ir::NodeId a, ir::NodeId b) {
                     return levels[a] < levels[b];
                   });

  std::vector<bool> placed(dfg.size(), false);
  auto ready = [&](ir::NodeId id) {
    for (ir::NodeId pred : dfg.node(id).operands) {
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
    for (ir::NodeId id : order) {
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

}  // namespace amdrel::finegrain
