// A cycle-by-cycle text view of a CGC schedule, for tests and for
// debugging the binder: for each CGC cycle, the operations executing in
// every CGC (row/column placement, chains visible as same-cycle row
// sequences) plus memory traffic.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coarsegrain/cgc_scheduler.h"

namespace amdrel::test {

inline std::string describe_schedule(const coarsegrain::CgcSchedule& schedule,
                                     const ir::Dfg& dfg,
                                     const platform::CgcModel& cgc) {
  std::ostringstream os;
  os << "CGC schedule: " << schedule.total_cgc_cycles << " T_CGC cycles, "
     << schedule.mem_accesses << " memory accesses\n";

  // cycle -> cgc -> placements (sorted row-major for chain readability)
  std::map<std::int64_t, std::map<int, std::vector<ir::NodeId>>> by_cycle;
  std::map<std::int64_t, std::vector<ir::NodeId>> mem_by_cycle;
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    if (schedule.start[id] < 0) continue;
    if (schedule.placement[id].bound()) {
      by_cycle[schedule.start[id]][schedule.placement[id].cgc].push_back(id);
    } else if (ir::op_class(dfg.node(id).kind) == ir::OpClass::kMem &&
               !cgc.dma_memory) {
      mem_by_cycle[schedule.start[id]].push_back(id);
    }
  }
  for (auto& [cycle, cgcs] : by_cycle) {
    os << "  cycle " << cycle << ":\n";
    for (auto& [c, nodes] : cgcs) {
      std::sort(nodes.begin(), nodes.end(), [&](ir::NodeId a, ir::NodeId b) {
        const auto& pa = schedule.placement[a];
        const auto& pb = schedule.placement[b];
        if (pa.col != pb.col) return pa.col < pb.col;
        return pa.row < pb.row;
      });
      os << "    CGC" << c << ":";
      for (const ir::NodeId id : nodes) {
        const auto& p = schedule.placement[id];
        os << " [r" << p.row << "c" << p.col << "] "
           << ir::op_name(dfg.node(id).kind) << "#" << id;
      }
      os << "\n";
    }
    const auto mem = mem_by_cycle.find(cycle);
    if (mem != mem_by_cycle.end()) {
      os << "    mem:";
      for (const ir::NodeId id : mem->second) {
        os << " " << ir::op_name(dfg.node(id).kind) << "#" << id;
      }
      os << "\n";
    }
  }
  if (cgc.dma_memory && schedule.mem_accesses > 0) {
    const std::int64_t bursts =
        (schedule.mem_accesses + cgc.mem_ports - 1) / cgc.mem_ports;
    os << "  DMA: " << schedule.mem_accesses << " accesses over " << bursts
       << " bursts (" << bursts * cgc.mem_access_cgc_cycles
       << " T_CGC cycles)\n";
  }
  return os.str();
}

}  // namespace amdrel::test
