#pragma once

#include <cstdint>

#include "coarsegrain/cgc_scheduler.h"
#include "ir/cdfg.h"
#include "platform/platform.h"

namespace amdrel::coarsegrain {

/// Coarse-grain mapping of one basic block: the CGC schedule plus its
/// latency converted to FPGA clock cycles (the unit all paper tables use).
struct CgcBlockMapping {
  CgcSchedule schedule;
  std::int64_t cycles_per_invocation_fpga = 0;
};

CgcBlockMapping map_block_to_cgc(const ir::Dfg& dfg,
                                 const platform::Platform& platform);

}  // namespace amdrel::coarsegrain
