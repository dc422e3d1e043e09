#include "finegrain/fpga_mapper.h"

#include <algorithm>

namespace amdrel::finegrain {

FpgaBlockMapping map_block_to_fpga(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const platform::MemoryModel& memory) {
  return map_block_to_fpga(dfg, fpga, memory, level_order(dfg));
}

FpgaBlockMapping map_block_to_fpga(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const platform::MemoryModel& memory,
                                   const LevelOrder& order) {
  FpgaBlockMapping mapping;
  mapping.partitioning = fpga.mapper == platform::FineMapper::kListPacking
                             ? partition_dfg_list(dfg, fpga, order)
                             : partition_dfg(dfg, fpga, order);

  const std::vector<int>& part = mapping.partitioning.partition_of;

  // exec: ASAP levels run back to back; within one (partition, level)
  // group the fabric sustains `parallel_lanes` delay-units of issue per
  // cycle, so a group with total delay D and slowest op d costs
  // max(d, ceil(D / lanes)) cycles. One level at a time, the groups live
  // in per-partition slots, and `touched` lists the slots to drain.
  struct Slot {
    int level = 0;          ///< the level whose group the slot holds
    ir::NodeId counted_for = ir::kNoNode;  ///< see the boundary count
    std::int64_t sum_delay = 0;
    std::int64_t max_delay = 0;
  };
  std::vector<Slot> slots(
      static_cast<std::size_t>(mapping.partitioning.num_partitions) + 1);
  const std::int64_t lanes = std::max(1, fpga.parallel_lanes);
  std::vector<int> touched;
  bool any_group = false;
  for (int level = 1; level + 1 < static_cast<int>(order.level_start.size());
       ++level) {
    for (int k = order.level_start[level]; k < order.level_start[level + 1];
         ++k) {
      const ir::NodeId id = order.nodes[k];
      const std::int64_t delay = fpga.delay_cycles(dfg.node(id).kind);
      if (delay == 0) continue;  // copies are wiring
      Slot& slot = slots[part[id]];
      if (slot.level != level) {
        slot.level = level;
        slot.sum_delay = 0;
        slot.max_delay = 0;
        touched.push_back(part[id]);
      }
      slot.sum_delay += delay;
      slot.max_delay = std::max(slot.max_delay, delay);
    }
    for (const int p : touched) {
      mapping.exec_cycles += std::max(
          slots[p].max_delay, (slots[p].sum_delay + lanes - 1) / lanes);
    }
    any_group = any_group || !touched.empty();
    touched.clear();
  }
  if (any_group) {
    mapping.exec_cycles += fpga.invocation_overhead_cycles;
  }

  // Values crossing a partition boundary: a producer with at least one
  // consumer in a different partition is stored once and filled once per
  // consuming partition. A slot's counted_for is the last producer that
  // counted its partition.
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    if (part[id] == 0) continue;
    std::int64_t consumer_partitions = 0;
    for (ir::NodeId user : dfg.users(id)) {
      const int p = part[user];
      if (p != 0 && p != part[id] && slots[p].counted_for != id) {
        slots[p].counted_for = id;
        ++consumer_partitions;
      }
    }
    if (consumer_partitions > 0) {
      mapping.boundary_words += 1 + consumer_partitions;
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

std::int64_t fpga_total_cycles(const std::vector<FpgaBlockMapping>& mappings,
                               const ir::ProfileData& profile,
                               const platform::FpgaModel& fpga) {
  std::int64_t total = 0;
  for (std::size_t id = 0; id < mappings.size(); ++id) {
    const auto iterations =
        static_cast<std::int64_t>(profile.count(static_cast<int>(id)));
    total += mappings[id].cycles_per_invocation(fpga) * iterations;
    total += mappings[id].amortized_cycles(fpga);
  }
  return total;
}

}  // namespace amdrel::finegrain
