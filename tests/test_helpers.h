#pragma once

// Computations that only tests use, kept out of the library.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "ir/cdfg.h"
#include "ir/dfg.h"
#include "ir/profile.h"
#include "platform/platform.h"

namespace amdrel::test {

/// Applies the paper's routability guidance: only `fraction` (typically
/// 0.70) of a device's raw area is available for operation mapping.
inline platform::FpgaModel from_device_area(double device_area,
                                            double fraction = 0.70) {
  platform::FpgaModel model;
  model.usable_area = device_area * fraction;
  return model;
}

/// Compute slots usable per CGC cycle over the whole data-path.
inline int slots_per_cycle(const platform::CgcModel& cgc) {
  return cgc.count * cgc.rows * cgc.cols;
}

/// Largest ASAP level of any schedulable node (0 for an empty graph).
inline int max_asap_level(const ir::Dfg& dfg) {
  const std::vector<int> levels = dfg.asap_levels();
  return levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
}

/// Which blocks the mapper has scheduled on the CGC so far. Walks
/// resolve coarse prices lazily, at a block's first move or proposal, so
/// two runs that priced the same walk leave the same set.
inline std::vector<bool> scheduled_blocks(
    const core::HybridMapper& mapper) {
  std::vector<bool> scheduled;
  for (const auto& coarse : mapper.state().coarse) {
    scheduled.push_back(coarse.has_value());
  }
  return scheduled;
}

/// Moves every CGC-eligible block (not only loop kernels) to the
/// coarse-grain data-path; the "all-coarse" end of the design space.
inline core::PartitionReport all_coarse_split(
    const ir::Cdfg& cdfg, const ir::ProfileData& profile,
    const platform::Platform& platform,
    std::int64_t timing_constraint_cycles) {
  core::PartitionReport report;
  report.app = cdfg.name();
  report.timing_constraint = timing_constraint_cycles;

  core::HybridMapper mapper(cdfg, platform);
  report.initial_cycles = mapper.all_fine_cycles(profile);

  std::vector<ir::BlockId> moved;
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    if (profile.count(block.id) == 0) continue;
    if (!mapper.cgc_eligible(block.id)) continue;
    if (block.dfg.op_mix().total_schedulable() == 0) continue;
    moved.push_back(block.id);
  }
  report.moved = moved;
  report.cost = mapper.evaluate(profile, moved);
  report.final_cycles = report.cost.total();
  report.cycles_in_cgc = report.cost.t_coarse;
  report.met = report.final_cycles <= timing_constraint_cycles;
  report.engine_iterations = static_cast<int>(moved.size());
  return report;
}

}  // namespace amdrel::test
