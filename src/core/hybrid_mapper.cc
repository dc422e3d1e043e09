#include "core/hybrid_mapper.h"

#include <algorithm>
#include <functional>

#include "core/energy.h"
#include "core/json_lines.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::core {

namespace {

void append_bits(std::vector<std::uint64_t>& out, double value) {
  out.push_back(static_cast<std::uint64_t>(jsonl::double_to_bits(value)));
}

void append_bits(std::vector<std::uint64_t>& out, std::int64_t value) {
  out.push_back(static_cast<std::uint64_t>(value));
}

}  // namespace

void HybridMapper::build_block_tables() {
  const auto blocks = static_cast<std::size_t>(cdfg_->size());
  op_mix_.resize(blocks);
  live_words_.resize(blocks);
  node_count_.resize(blocks);
  fine_inv_cycles_.resize(blocks);
  amortized_charge_.resize(blocks);
  comm_inv_cycles_.resize(blocks);
  coarse_inv_cycles_.assign(blocks, -1);
  for (std::size_t b = 0; b < blocks; ++b) {
    const ir::Dfg& dfg = cdfg_->block(static_cast<ir::BlockId>(b)).dfg;
    op_mix_[b] = dfg.op_mix();
    live_words_[b] = dfg.live_in_count() + dfg.live_out_count();
    node_count_[b] = dfg.size();
    fine_inv_cycles_[b] = fine_[b].cycles_per_invocation(platform_->fpga);
    amortized_charge_[b] =
        fine_[b].amortized_reconfigs * platform_->fpga.reconfig_cycles;
    comm_inv_cycles_[b] =
        live_words_[b] * platform_->memory.transfer_cycles_per_word;
    if (coarse_.size() > b && coarse_[b].has_value()) {
      coarse_inv_cycles_[b] = coarse_[b]->cycles_per_invocation_fpga;
    }
  }
}

HybridMapper::HybridMapper(const ir::Cdfg& cdfg,
                           const platform::Platform& platform)
    : cdfg_(&cdfg), platform_(&platform) {
  platform::validate_platform(platform);
  fine_ = finegrain::map_cdfg_to_fpga(cdfg, platform.fpga, platform.memory);
  coarse_.resize(static_cast<std::size_t>(cdfg.size()));
  build_block_tables();
}

HybridMapper::HybridMapper(const ir::Cdfg& cdfg,
                           const platform::Platform& platform,
                           const MapperState& state)
    : cdfg_(&cdfg),
      platform_(&platform),
      fine_(state.fine),
      coarse_(state.coarse) {
  platform::validate_platform(platform);
  require(static_cast<ir::BlockId>(fine_.size()) == cdfg.size(),
          "HybridMapper: snapshot covers ", fine_.size(),
          " blocks but the CDFG has ", cdfg.size());
  require(coarse_.size() <= fine_.size(),
          "HybridMapper: snapshot holds ", coarse_.size(),
          " coarse mappings for ", fine_.size(), " blocks");
  // The block count alone is not enough: a snapshot of another CDFG with
  // as many blocks (a caller keying it wrongly) would carry per-node
  // vectors of the wrong shape, which the engine would index out of
  // bounds.
  for (std::size_t b = 0; b < fine_.size(); ++b) {
    const ir::BasicBlock& bb = cdfg.block(static_cast<ir::BlockId>(b));
    require(static_cast<ir::NodeId>(fine_[b].partitioning.partition_of
                                        .size()) == bb.dfg.size(),
            "HybridMapper: snapshot partitioning of block ", b,
            " covers ", fine_[b].partitioning.partition_of.size(),
            " nodes but the block has ", bb.dfg.size());
  }
  coarse_.resize(static_cast<std::size_t>(cdfg.size()));
  build_block_tables();
}

const finegrain::FpgaBlockMapping& HybridMapper::fine(
    ir::BlockId block) const {
  if (block < 0 || block >= static_cast<ir::BlockId>(fine_.size())) {
    fail(cat("HybridMapper::fine: bad block ", block));
  }
  return fine_[block];
}

const coarsegrain::CgcBlockMapping& HybridMapper::coarse(ir::BlockId block) {
  std::optional<coarsegrain::CgcBlockMapping>& slot =
      coarse_[static_cast<std::size_t>(block)];
  if (!slot.has_value()) {
    const ir::BasicBlock& bb = cdfg_->block(block);
    slot = coarsegrain::map_block_to_cgc(bb.dfg, *platform_);
    coarse_inv_cycles_[static_cast<std::size_t>(block)] =
        slot->cycles_per_invocation_fpga;
  }
  return *slot;
}

std::int64_t HybridMapper::fine_cycles_per_invocation(
    ir::BlockId block) const {
  if (block < 0 || block >= static_cast<ir::BlockId>(fine_.size())) {
    fail(cat("HybridMapper::fine: bad block ", block));
  }
  return fine_inv_cycles_[static_cast<std::size_t>(block)];
}

std::int64_t HybridMapper::coarse_cycles_per_invocation(ir::BlockId block) {
  const std::int64_t memo =
      coarse_inv_cycles_[static_cast<std::size_t>(block)];
  if (memo >= 0) return memo;
  return coarse(block).cycles_per_invocation_fpga;
}

std::int64_t HybridMapper::comm_cycles_per_invocation(
    ir::BlockId block) const {
  return comm_inv_cycles_[static_cast<std::size_t>(block)];
}

std::int64_t HybridMapper::fine_contribution_cycles(
    ir::BlockId block, const ir::ProfileData& profile) const {
  if (block < 0 || block >= static_cast<ir::BlockId>(fine_.size())) {
    fail(cat("HybridMapper::fine: bad block ", block));
  }
  const auto b = static_cast<std::size_t>(block);
  const auto iterations = static_cast<std::int64_t>(profile.count(block));
  return fine_inv_cycles_[b] * iterations + amortized_charge_[b];
}

std::int64_t HybridMapper::move_benefit_cycles(ir::BlockId block,
                                               std::uint64_t exec_freq) {
  if (!cgc_eligible(block)) return 0;
  return (fine_cycles_per_invocation(block) -
          coarse_cycles_per_invocation(block) -
          comm_cycles_per_invocation(block)) *
         static_cast<std::int64_t>(exec_freq);
}

std::int64_t HybridMapper::all_fine_cycles(
    const ir::ProfileData& profile) const {
  return finegrain::fpga_total_cycles(fine_, profile, platform_->fpga);
}

IncrementalSplit::IncrementalSplit(HybridMapper& mapper,
                                   const ir::ProfileData& profile,
                                   const ObjectiveSpec& spec)
    : mapper_(&mapper),
      objective_(spec.objective),
      moved_(static_cast<std::size_t>(mapper.cdfg().size())),
      pos_(static_cast<std::size_t>(mapper.cdfg().size()), -1) {
  const auto blocks = static_cast<std::size_t>(mapper.cdfg().size());
  iters_.resize(blocks);
  fine_contrib_.resize(blocks);
  comm_total_.resize(blocks);
  coarse_total_.assign(blocks, -1);
  // One pricing pass per construction: the all-fine t_fpga sums every
  // block's equation (4) contribution, the same integer terms as
  // fpga_total_cycles, so it equals mapper.all_fine_cycles(profile).
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto id = static_cast<ir::BlockId>(b);
    iters_[b] = static_cast<std::int64_t>(profile.count(id));
    fine_contrib_[b] = mapper.fine_contribution_cycles(id, profile);
    comm_total_[b] = mapper.comm_cycles_per_invocation(id) * iters_[b];
    cost_.t_fpga += fine_contrib_[b];
  }
  if (spec.reconfig.bitstream_cycles_per_unit > 0) {
    resident_regions_ =
        spec.reconfig.resident_regions(mapper.platform().cgc.count);
    reconfig_load_.resize(blocks);
    reconfig_saving_.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::int64_t load = spec.reconfig.load_cycles(
          mapper.node_count(static_cast<ir::BlockId>(b)));
      reconfig_load_[b] = load;
      reconfig_saving_[b] = load * (std::max<std::int64_t>(1, iters_[b]) - 1);
    }
  }
  exact_ = !objective_.needs_energy() && resident_regions_ == 0;
  if (!objective_.needs_energy()) return;
  // Price every block once; the all-fine starting breakdown accumulates
  // the fine-side terms in block order, matching estimate_energy({}).
  block_energy_.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto id = static_cast<ir::BlockId>(b);
    block_energy_.push_back(block_energy(mapper.op_mix(id),
                                         mapper.live_words(id), mapper.fine(id),
                                         profile.count(id), objective_.energy));
    const BlockEnergy& be = block_energy_.back();
    energy_.fine_pj += be.fine_pj;
    energy_.comm_pj += be.fine_comm_pj;
    energy_.reconfig_pj += be.fine_reconfig_pj;
  }
}

bool IncrementalSplit::is_moved(ir::BlockId block) const {
  if (block < 0 || block >= static_cast<ir::BlockId>(pos_.size())) {
    fail(cat("IncrementalSplit::is_moved: bad block ", block));
  }
  return moved_.test(static_cast<std::size_t>(block));
}

std::int64_t IncrementalSplit::coarse_total_cycles(ir::BlockId block) {
  std::int64_t& memo = coarse_total_[static_cast<std::size_t>(block)];
  if (memo < 0) {
    memo = mapper_->coarse_cycles_per_invocation(block) *
           iters_[static_cast<std::size_t>(block)];
  }
  return memo;
}

void IncrementalSplit::append_walk_header(
    std::vector<std::uint64_t>& out) const {
  append_bits(out, cost_.t_fpga);
  append_bits(out, cost_.t_coarse);
  append_bits(out, cost_.t_comm);
  append_bits(out, cost_.t_reconfig);
  append_bits(out, energy_.fine_pj);
  append_bits(out, energy_.coarse_pj);
  append_bits(out, energy_.reconfig_pj);
  append_bits(out, energy_.comm_pj);
  out.push_back(static_cast<std::uint64_t>(objective_.kind));
  append_bits(out, objective_.cycle_weight);
  append_bits(out, objective_.energy_weight);
  append_bits(out, std::int64_t{resident_regions_});
  append_bits(out, static_cast<std::int64_t>(pos_.size()));
}

void IncrementalSplit::append_block_row(ir::BlockId block,
                                        std::vector<std::uint64_t>& out) {
  const auto b = static_cast<std::size_t>(block);
  append_bits(out, fine_contrib_[b]);
  append_bits(out, comm_total_[b]);
  append_bits(out, coarse_total_cycles(block));
  append_bits(out, iters_[b]);
  if (!block_energy_.empty()) {
    const BlockEnergy& be = block_energy_[b];
    append_bits(out, be.fine_pj);
    append_bits(out, be.fine_comm_pj);
    append_bits(out, be.fine_reconfig_pj);
    append_bits(out, be.coarse_pj);
    append_bits(out, be.coarse_comm_pj);
  }
  if (resident_regions_ > 0) {
    append_bits(out, reconfig_load_[b]);
    append_bits(out, reconfig_saving_[b]);
  }
}

void IncrementalSplit::move(ir::BlockId block) {
  if (is_moved(block)) {
    fail(cat("IncrementalSplit::move: block ", block, " moved twice"));
  }
  const auto b = static_cast<std::size_t>(block);
  // Resolve the coarse price before mutating, so a throw from coarse
  // scheduling (CGC-ineligible block) leaves the split untouched.
  const std::int64_t coarse = coarse_total_cycles(block);
  cost_.t_fpga -= fine_contrib_[b];
  cost_.t_coarse += coarse;
  cost_.t_comm += comm_total_[b];
  if (!block_energy_.empty()) {
    const BlockEnergy& be = block_energy_[b];
    energy_.fine_pj -= be.fine_pj;
    energy_.comm_pj -= be.fine_comm_pj;
    energy_.reconfig_pj -= be.fine_reconfig_pj;
    energy_.coarse_pj += be.coarse_pj;
    energy_.comm_pj += be.coarse_comm_pj;
  }
  moved_.set(b);
  pos_[b] = static_cast<std::int32_t>(order_.size());
  order_.push_back(block);
  if (resident_regions_ > 0) {
    reconfig_sum_ +=
        reconfig_load_[b] * std::max<std::int64_t>(1, iters_[b]);
    reprice_reconfig();
  }
}

void IncrementalSplit::unmove(ir::BlockId block) {
  if (!is_moved(block)) {
    fail(cat("IncrementalSplit::unmove: block ", block, " is not moved"));
  }
  const auto b = static_cast<std::size_t>(block);
  cost_.t_fpga += fine_contrib_[b];
  cost_.t_coarse -= coarse_total_[b];
  cost_.t_comm -= comm_total_[b];
  if (!block_energy_.empty()) {
    const BlockEnergy& be = block_energy_[b];
    energy_.fine_pj += be.fine_pj;
    energy_.comm_pj += be.fine_comm_pj;
    energy_.reconfig_pj += be.fine_reconfig_pj;
    energy_.coarse_pj -= be.coarse_pj;
    energy_.comm_pj -= be.coarse_comm_pj;
  }
  // Swap-remove from the order list, keeping the index map consistent.
  const std::int32_t index = pos_[b];
  const ir::BlockId last = order_.back();
  order_[static_cast<std::size_t>(index)] = last;
  pos_[static_cast<std::size_t>(last)] = index;
  order_.pop_back();
  pos_[b] = -1;
  moved_.clear(b);
  if (resident_regions_ > 0) {
    reconfig_sum_ -=
        reconfig_load_[b] * std::max<std::int64_t>(1, iters_[b]);
    reprice_reconfig();
  }
}

void IncrementalSplit::flip(ir::BlockId block) {
  if (is_moved(block)) {
    unmove(block);
  } else {
    move(block);
  }
}

void IncrementalSplit::reprice_reconfig() {
  // The per-block load*iterations sum is maintained incrementally; only
  // the residency discount couples blocks, so this exact-window
  // repricing re-selects the top-R savings over the moved set. The
  // discount SUM is order-independent (ties contribute the same value
  // whichever block wins the region), so the result matches a
  // from-scratch evaluation whatever the move history.
  reconfig_scratch_.clear();
  for (const ir::BlockId block : order_) {
    reconfig_scratch_.push_back(
        reconfig_saving_[static_cast<std::size_t>(block)]);
  }
  const std::size_t resident = std::min<std::size_t>(
      reconfig_scratch_.size(),
      static_cast<std::size_t>(resident_regions_));
  std::partial_sort(
      reconfig_scratch_.begin(),
      reconfig_scratch_.begin() + static_cast<std::ptrdiff_t>(resident),
      reconfig_scratch_.end(), std::greater<std::int64_t>());
  std::int64_t discount = 0;
  for (std::size_t i = 0; i < resident; ++i) {
    discount += reconfig_scratch_[i];
  }
  cost_.t_reconfig = reconfig_sum_ - discount;
}

}  // namespace amdrel::core
