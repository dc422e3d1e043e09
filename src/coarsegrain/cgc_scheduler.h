#pragma once

#include <cstdint>
#include <vector>

#include "ir/dfg.h"
#include "platform/cgc_model.h"

namespace amdrel::coarsegrain {

/// Physical slot a compute operation is bound to: CGC index, row (1-based,
/// the chaining depth) and column.
struct CgcPlacement {
  int cgc = -1;
  int row = -1;
  int col = -1;
  bool bound() const { return cgc >= 0; }
};

/// Result of mapping one DFG onto the CGC data-path (paper section 3.3:
/// list-based scheduling followed by CGC binding). Times are CGC clock
/// cycles (period T_CGC); a compute node scheduled at cycle t produces its
/// value for other cycles at t+1, while nodes chained below it in the same
/// CGC consume it within cycle t itself.
struct CgcSchedule {
  std::vector<std::int64_t> start;   ///< per node; -1 for structural nodes
  std::vector<std::int64_t> finish;  ///< cycle at which the value is ready
  std::vector<CgcPlacement> placement;

  std::int64_t total_cgc_cycles = 0;  ///< DFG latency in T_CGC cycles
  std::int64_t mem_accesses = 0;      ///< loads+stores issued to memory
};

/// Schedules and binds `dfg` on the CGC data-path. Operations execute with
/// unit delay (one T_CGC); a chain of dependent operations placed in
/// increasing rows of one CGC completes within a single cycle, which is
/// how the data-path realizes complex operations such as multiply-add.
/// Memory accesses go through `cgc.mem_ports` shared-memory ports and take
/// `cgc.mem_access_cgc_cycles` each.
///
/// Throws Error if the DFG contains divisions (the CGC node holds only a
/// multiplier and an ALU) or memory operations when the model has no
/// ports.
CgcSchedule schedule_dfg_on_cgc(const ir::Dfg& dfg,
                                const platform::CgcModel& cgc);

}  // namespace amdrel::coarsegrain
