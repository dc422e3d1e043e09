#include "core/energy.h"

#include "support/error.h"

namespace amdrel::core {

namespace {

double fine_mix_energy(const ir::OpMix& mix, const EnergyModel& model) {
  return static_cast<double>(mix.alu) * model.fpga_alu_pj +
         static_cast<double>(mix.mul) * model.fpga_mul_pj +
         static_cast<double>(mix.div) * model.fpga_div_pj +
         static_cast<double>(mix.mem) * model.fpga_mem_pj;
}

double coarse_mix_energy(const ir::OpMix& mix, const EnergyModel& model) {
  return static_cast<double>(mix.alu) * model.cgc_alu_pj +
         static_cast<double>(mix.mul) * model.cgc_mul_pj +
         static_cast<double>(mix.mem) * model.cgc_mem_pj;
}

}  // namespace

BlockEnergy block_energy(const ir::OpMix& mix, std::int64_t comm_words,
                         const finegrain::FpgaBlockMapping& mapping,
                         std::uint64_t iterations, const EnergyModel& model) {
  BlockEnergy be;
  const auto iters = static_cast<double>(iterations);
  if (iters == 0) return be;
  be.fine_pj = iters * fine_mix_energy(mix, model);
  be.fine_comm_pj = iters * static_cast<double>(mapping.boundary_words) *
                    model.spill_pj_per_word;
  const double reconfigs =
      static_cast<double>(mapping.reconfigs_per_invocation) * iters +
      static_cast<double>(mapping.amortized_reconfigs);
  be.fine_reconfig_pj = reconfigs * model.reconfiguration_pj;
  be.coarse_pj = iters * coarse_mix_energy(mix, model);
  be.coarse_comm_pj = iters * static_cast<double>(comm_words) *
                      model.transfer_pj_per_word;
  return be;
}

EnergyBreakdown estimate_energy(const HybridMapper& mapper,
                                const ir::ProfileData& profile,
                                const std::vector<ir::BlockId>& moved,
                                const EnergyModel& model) {
  const ir::Cdfg& cdfg = mapper.cdfg();
  std::vector<bool> is_moved(cdfg.size(), false);
  for (ir::BlockId block : moved) {
    require(block >= 0 && block < cdfg.size(),
            "estimate_energy: bad moved block");
    is_moved[block] = true;
  }

  EnergyBreakdown breakdown;
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    const BlockEnergy be = block_energy(
        mapper.op_mix(block.id), mapper.live_words(block.id),
        mapper.fine(block.id), profile.count(block.id), model);
    if (is_moved[block.id]) {
      breakdown.coarse_pj += be.coarse_pj;
      breakdown.comm_pj += be.coarse_comm_pj;
    } else {
      breakdown.fine_pj += be.fine_pj;
      breakdown.comm_pj += be.fine_comm_pj;
      breakdown.reconfig_pj += be.fine_reconfig_pj;
    }
  }
  return breakdown;
}

EnergyBreakdown estimate_energy(const ir::Cdfg& cdfg,
                                const ir::ProfileData& profile,
                                const platform::Platform& platform,
                                const std::vector<ir::BlockId>& moved,
                                const EnergyModel& model) {
  const HybridMapper mapper(cdfg, platform);
  return estimate_energy(mapper, profile, moved, model);
}

}  // namespace amdrel::core
