#pragma once

#include <cstdint>
#include <vector>

#include "finegrain/temporal_partitioner.h"
#include "ir/cdfg.h"
#include "ir/profile.h"
#include "platform/memory_model.h"
#include "platform/platform.h"

namespace amdrel::finegrain {

/// Fine-grain mapping of one basic block (paper section 3.2): the temporal
/// partitioning plus the execution-time model.
///
/// Execution model: within one temporal partition the ASAP levels run
/// sequentially and all nodes of a level run in parallel, so a level costs
/// the maximum operation delay among its nodes in that partition. Values
/// flowing between partitions are spilled/filled through the shared data
/// memory. Reconfiguration is charged according to the FpgaModel's policy.
struct FpgaBlockMapping {
  TemporalPartitioning partitioning;
  std::int64_t exec_cycles = 0;        ///< sum of per-partition level costs
  std::int64_t boundary_words = 0;     ///< values crossing partitions
  std::int64_t boundary_cycles = 0;    ///< spill/fill cost of those values
  std::int64_t reconfigs_per_invocation = 0;
  std::int64_t amortized_reconfigs = 0;  ///< only for kAmortizedOnce

  /// Cycles for one execution of the block (the paper's t_to_FPGA(BB)),
  /// excluding amortized reconfigurations.
  std::int64_t cycles_per_invocation(const platform::FpgaModel& fpga) const {
    return exec_cycles + boundary_cycles +
           reconfigs_per_invocation * fpga.reconfig_cycles;
  }

  /// Reconfiguration cycles charged once per run, not per invocation
  /// (kAmortizedOnce).
  std::int64_t amortized_cycles(const platform::FpgaModel& fpga) const {
    return amortized_reconfigs * fpga.reconfig_cycles;
  }
};

FpgaBlockMapping map_block_to_fpga(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const platform::MemoryModel& memory);
/// As above, over an `order` the caller already built from `dfg`.
FpgaBlockMapping map_block_to_fpga(const ir::Dfg& dfg,
                                   const platform::FpgaModel& fpga,
                                   const platform::MemoryModel& memory,
                                   const LevelOrder& order);

/// Equation (4) of the paper: t_FPGA = sum over blocks of
/// t_to_FPGA(BB_i) * Iter(BB_i), plus any amortized reconfiguration cost.
std::int64_t fpga_total_cycles(const std::vector<FpgaBlockMapping>& mappings,
                               const ir::ProfileData& profile,
                               const platform::FpgaModel& fpga);

}  // namespace amdrel::finegrain
