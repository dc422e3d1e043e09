#include "core/hybrid_mapper.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "core/energy.h"
#include "core/fingerprint.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::core {

namespace {

std::vector<finegrain::FpgaBlockMapping> map_blocks(
    const ir::Cdfg& cdfg, const BlockFacts& facts,
    const platform::FpgaModel& fpga, const platform::MemoryModel& memory) {
  std::vector<finegrain::FpgaBlockMapping> mappings;
  mappings.reserve(facts.level_orders.size());
  for (std::size_t b = 0; b < facts.level_orders.size(); ++b) {
    mappings.push_back(finegrain::map_block_to_fpga(
        cdfg.block(static_cast<ir::BlockId>(b)).dfg, fpga, memory,
        facts.level_orders[b]));
  }
  return mappings;
}

}  // namespace

BlockFacts::BlockFacts(const ir::Cdfg& cdfg) {
  const auto blocks = static_cast<std::size_t>(cdfg.size());
  op_mix.reserve(blocks);
  live_words.reserve(blocks);
  node_count.reserve(blocks);
  level_orders.reserve(blocks);
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    const ir::Dfg& dfg = block.dfg;
    op_mix.push_back(dfg.op_mix());
    live_words.push_back(dfg.live_in_count() + dfg.live_out_count());
    node_count.push_back(dfg.size());
    level_orders.push_back(finegrain::level_order(dfg));
  }
}

FineTables::FineTables(const ir::Cdfg& cdfg, const BlockFacts& facts,
                       const platform::FpgaModel& fpga,
                       const platform::MemoryModel& memory)
    : FineTables(map_blocks(cdfg, facts, fpga, memory), fpga) {}

FineTables::FineTables(std::vector<finegrain::FpgaBlockMapping> mappings,
                       const platform::FpgaModel& fpga)
    : fine(std::move(mappings)) {
  inv_cycles.reserve(fine.size());
  amortized_charge.reserve(fine.size());
  for (const finegrain::FpgaBlockMapping& mapping : fine) {
    inv_cycles.push_back(mapping.cycles_per_invocation(fpga));
    amortized_charge.push_back(mapping.amortized_cycles(fpga));
  }
}

HybridMapper::HybridMapper(const ir::Cdfg& cdfg,
                           const platform::Platform& platform,
                           std::shared_ptr<const BlockFacts> facts,
                           std::shared_ptr<const FineTables> fine,
                           std::shared_ptr<CoarseTables> coarse)
    : cdfg_(&cdfg),
      platform_(&platform),
      facts_(std::move(facts)),
      fine_(std::move(fine)),
      coarse_(std::move(coarse)) {
  const auto blocks = static_cast<std::size_t>(cdfg.size());
  comm_inv_cycles_.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    comm_inv_cycles_[b] =
        platform.memory.transfer_cycles(facts_->live_words[b]);
  }
}

HybridMapper::HybridMapper(const ir::Cdfg& cdfg,
                           const platform::Platform& platform)
    : cdfg_(&cdfg), platform_(&platform) {
  platform::validate_platform(platform);
  auto facts = std::make_shared<const BlockFacts>(cdfg);
  auto fine = std::make_shared<const FineTables>(cdfg, *facts, platform.fpga,
                                                 platform.memory);
  *this = HybridMapper(
      cdfg, platform, std::move(facts), std::move(fine),
      std::make_shared<CoarseTables>(static_cast<std::size_t>(cdfg.size())));
}

HybridMapper::HybridMapper(const ir::Cdfg& cdfg,
                           const platform::Platform& platform,
                           const MapperState& state)
    : cdfg_(&cdfg), platform_(&platform) {
  platform::validate_platform(platform);
  require(static_cast<ir::BlockId>(state.fine.size()) == cdfg.size(),
          "HybridMapper: snapshot covers ", state.fine.size(),
          " blocks but the CDFG has ", cdfg.size());
  require(state.coarse.size() <= state.fine.size(),
          "HybridMapper: snapshot holds ", state.coarse.size(),
          " coarse mappings for ", state.fine.size(), " blocks");
  // The block count alone is not enough: a snapshot of another CDFG with
  // as many blocks (a caller keying it wrongly) would carry per-node
  // vectors of the wrong shape, which the engine would index out of
  // bounds.
  for (std::size_t b = 0; b < state.fine.size(); ++b) {
    const ir::BasicBlock& bb = cdfg.block(static_cast<ir::BlockId>(b));
    require(static_cast<ir::NodeId>(state.fine[b].partitioning.partition_of
                                        .size()) == bb.dfg.size(),
            "HybridMapper: snapshot partitioning of block ", b,
            " covers ", state.fine[b].partitioning.partition_of.size(),
            " nodes but the block has ", bb.dfg.size());
  }
  auto coarse =
      std::make_shared<CoarseTables>(static_cast<std::size_t>(cdfg.size()));
  for (std::size_t b = 0; b < state.coarse.size(); ++b) {
    if (!state.coarse[b].has_value()) continue;
    coarse->coarse[b] = state.coarse[b];
    coarse->inv_cycles[b] = state.coarse[b]->cycles_per_invocation_fpga;
  }
  *this = HybridMapper(
      cdfg, platform, std::make_shared<const BlockFacts>(cdfg),
      std::make_shared<const FineTables>(state.fine, platform.fpga),
      std::move(coarse));
}

void HybridMapper::fail_bad_block(ir::BlockId block, const char* caller) {
  fail(cat("HybridMapper::", caller, ": bad block ", block));
}

const finegrain::FpgaBlockMapping& HybridMapper::fine(
    ir::BlockId block) const {
  check_block(block, "fine");
  return fine_->fine[static_cast<std::size_t>(block)];
}

const coarsegrain::CgcBlockMapping& HybridMapper::coarse(ir::BlockId block) {
  check_block(block, "coarse");
  const auto b = static_cast<std::size_t>(block);
  std::optional<coarsegrain::CgcBlockMapping>& slot = coarse_->coarse[b];
  if (!slot.has_value()) {
    slot = coarsegrain::map_block_to_cgc(cdfg_->block(block).dfg, *platform_);
    coarse_->inv_cycles[b] = slot->cycles_per_invocation_fpga;
  }
  return *slot;
}

std::int64_t HybridMapper::fine_cycles_per_invocation(
    ir::BlockId block) const {
  check_block(block, "fine");
  return fine_->inv_cycles[static_cast<std::size_t>(block)];
}

std::int64_t HybridMapper::coarse_cycles_per_invocation(ir::BlockId block) {
  check_block(block, "coarse");
  const std::int64_t memo =
      coarse_->inv_cycles[static_cast<std::size_t>(block)];
  if (memo >= 0) return memo;
  return coarse(block).cycles_per_invocation_fpga;
}

std::int64_t HybridMapper::comm_cycles_per_invocation(
    ir::BlockId block) const {
  check_block(block, "comm_cycles_per_invocation");
  return comm_inv_cycles_[static_cast<std::size_t>(block)];
}

std::int64_t HybridMapper::fine_contribution_cycles(
    ir::BlockId block, const ir::ProfileData& profile) const {
  check_block(block, "fine");
  const auto b = static_cast<std::size_t>(block);
  const auto iterations = static_cast<std::int64_t>(profile.count(block));
  return fine_->inv_cycles[b] * iterations + fine_->amortized_charge[b];
}

std::int64_t HybridMapper::move_benefit_cycles(ir::BlockId block,
                                               std::uint64_t exec_freq) {
  check_block(block, "move_benefit_cycles");
  if (!cgc_eligible(block)) return 0;
  return (fine_cycles_per_invocation(block) -
          coarse_cycles_per_invocation(block) -
          comm_cycles_per_invocation(block)) *
         static_cast<std::int64_t>(exec_freq);
}

std::int64_t HybridMapper::all_fine_cycles(
    const ir::ProfileData& profile) const {
  return finegrain::fpga_total_cycles(fine_->fine, profile, platform_->fpga);
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
  append_words(out, cost_.t_fpga, cost_.t_coarse, cost_.t_comm,
               cost_.t_reconfig, energy_.fine_pj, energy_.coarse_pj,
               energy_.reconfig_pj, energy_.comm_pj, objective_.kind,
               objective_.cycle_weight, objective_.energy_weight,
               resident_regions_, pos_.size());
}

void IncrementalSplit::append_block_row(ir::BlockId block,
                                        std::vector<std::uint64_t>& out) {
  const auto b = static_cast<std::size_t>(block);
  append_words(out, fine_contrib_[b], comm_total_[b],
               coarse_total_cycles(block), iters_[b]);
  if (!block_energy_.empty()) {
    const BlockEnergy& be = block_energy_[b];
    append_words(out, be.fine_pj, be.fine_comm_pj, be.fine_reconfig_pj,
                 be.coarse_pj, be.coarse_comm_pj);
  }
  if (resident_regions_ > 0) {
    append_words(out, reconfig_load_[b], reconfig_saving_[b]);
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
