#include "coarsegrain/cgc_mapper.h"

namespace amdrel::coarsegrain {

CgcBlockMapping map_block_to_cgc(const ir::Dfg& dfg,
                                 const platform::Platform& platform) {
  CgcBlockMapping mapping;
  mapping.schedule = schedule_dfg_on_cgc(dfg, platform.cgc);
  mapping.cycles_per_invocation_fpga =
      platform.cgc_to_fpga_cycles(mapping.schedule.total_cgc_cycles);
  return mapping;
}

}  // namespace amdrel::coarsegrain
