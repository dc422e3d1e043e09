#include "core/axis_memo.h"

#include "core/json_lines.h"
#include "support/error.h"

namespace amdrel::core {

namespace {

bool same_analysis(const analysis::AnalysisOptions& a,
                   const analysis::AnalysisOptions& b) {
  return a.weights.alu == b.weights.alu && a.weights.mul == b.weights.mul &&
         a.weights.div == b.weights.div && a.weights.mem == b.weights.mem &&
         a.loops_only == b.loops_only && a.min_exec_freq == b.min_exec_freq;
}

// The header of a walk's key: the starting split first (it differs
// between most platforms, so map lookups part early), then everything
// else a strategy reads besides the movable kernels' rows.
std::vector<std::uint64_t> walk_header(StrategyKind kind,
                                       const AxisContext& ctx,
                                       const IncrementalSplit& start) {
  std::vector<std::uint64_t> header;
  header.reserve(24 + 2 * (ctx.cells.size() + ctx.kernels.size()));
  start.append_walk_header(header);
  const MethodologyOptions& options = ctx.options;
  header.push_back(static_cast<std::uint64_t>(kind));
  header.push_back(options.stop_when_met ? 1 : 0);
  header.push_back(options.skip_unprofitable ? 1 : 0);
  header.push_back(static_cast<std::uint64_t>(options.exhaustive_max_kernels));
  header.push_back(static_cast<std::uint64_t>(options.anneal_iterations));
  header.push_back(options.random_seed);
  header.push_back(ctx.cells.size());
  for (const AxisCell& cell : ctx.cells) {
    header.push_back(static_cast<std::uint64_t>(cell.timing_constraint));
    const std::int64_t budget = jsonl::double_to_bits(cell.energy_budget_pj);
    header.push_back(static_cast<std::uint64_t>(budget));
  }
  header.push_back(ctx.kernels.size());
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    header.push_back(static_cast<std::uint64_t>(kernel.block));
    header.push_back(kernel.cgc_eligible ? 1 : 0);
  }
  return header;
}

void append_double(std::vector<std::uint64_t>& key, double value) {
  key.push_back(static_cast<std::uint64_t>(jsonl::double_to_bits(value)));
}

// Every field of the models fine-grain mapping reads: the FPGA model
// and the memory model.
std::vector<std::uint64_t> fine_key(const platform::Platform& platform) {
  const platform::FpgaModel& fpga = platform.fpga;
  std::vector<std::uint64_t> key;
  key.reserve(19);
  append_double(key, fpga.usable_area);
  key.push_back(static_cast<std::uint64_t>(fpga.reconfig_cycles));
  key.push_back(static_cast<std::uint64_t>(fpga.parallel_lanes));
  key.push_back(static_cast<std::uint64_t>(fpga.invocation_overhead_cycles));
  key.push_back(static_cast<std::uint64_t>(fpga.reconfig_policy));
  key.push_back(static_cast<std::uint64_t>(fpga.mapper));
  append_double(key, fpga.clock_period_ns);
  append_double(key, fpga.area_alu);
  append_double(key, fpga.area_mul);
  append_double(key, fpga.area_div);
  append_double(key, fpga.area_mem);
  append_double(key, fpga.area_copy);
  key.push_back(static_cast<std::uint64_t>(fpga.delay_alu));
  key.push_back(static_cast<std::uint64_t>(fpga.delay_mul));
  key.push_back(static_cast<std::uint64_t>(fpga.delay_div));
  key.push_back(static_cast<std::uint64_t>(fpga.delay_mem));
  key.push_back(static_cast<std::uint64_t>(fpga.delay_copy));
  key.push_back(
      static_cast<std::uint64_t>(platform.memory.transfer_cycles_per_word));
  key.push_back(static_cast<std::uint64_t>(
      platform.memory.partition_boundary_cycles_per_word));
  return key;
}

// Every field of the CGC model, the only part of the platform CGC
// scheduling reads.
std::vector<std::uint64_t> coarse_key(const platform::CgcModel& cgc) {
  return {static_cast<std::uint64_t>(cgc.count),
          static_cast<std::uint64_t>(cgc.rows),
          static_cast<std::uint64_t>(cgc.cols),
          static_cast<std::uint64_t>(cgc.fpga_clock_ratio),
          static_cast<std::uint64_t>(cgc.enable_chaining),
          static_cast<std::uint64_t>(cgc.mem_ports),
          static_cast<std::uint64_t>(cgc.mem_access_cgc_cycles),
          static_cast<std::uint64_t>(cgc.dma_memory),
          static_cast<std::uint64_t>(cgc.register_bank_size)};
}

}  // namespace

void AxisMemo::bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile) {
  if (cdfg_ == &cdfg && profile_ == &profile) return;
  cdfg_ = &cdfg;
  profile_ = &profile;
  facts_.reset();
  fine_.clear();
  coarse_.clear();
  analysis_.reset();
  kernels_.clear();
  walks_.clear();
}

HybridMapper AxisMemo::mapper(const platform::Platform& platform) {
  require(cdfg_ != nullptr, "AxisMemo::mapper: no app bound");
  platform::validate_platform(platform);
  if (!facts_) facts_ = std::make_shared<const BlockFacts>(*cdfg_);
  std::vector<std::uint64_t> key = fine_key(platform);
  auto fine = fine_.find(key);
  if (fine == fine_.end()) {
    // Built before it is stored, so a mapping that throws leaves no
    // table to answer the next lookup.
    auto built = std::make_shared<const FineTables>(*cdfg_, *facts_,
                                                    platform.fpga,
                                                    platform.memory);
    fine = fine_.emplace(std::move(key), std::move(built)).first;
  }
  std::shared_ptr<CoarseTables>& coarse = coarse_[coarse_key(platform.cgc)];
  if (!coarse) {
    coarse = std::make_shared<CoarseTables>(
        static_cast<std::size_t>(cdfg_->size()));
  }
  return HybridMapper(*cdfg_, platform, facts_, fine->second, coarse);
}

const std::vector<analysis::KernelInfo>& AxisMemo::kernels(
    const analysis::AnalysisOptions& options) {
  require(cdfg_ != nullptr, "AxisMemo::kernels: no app bound");
  if (!analysis_ || !same_analysis(*analysis_, options)) {
    kernels_ = analysis::extract_kernels(*cdfg_, *profile_, options);
    analysis_ = options;
  }
  return kernels_;
}

std::vector<StrategyResult> AxisMemo::run(StrategyKind kind,
                                          const AxisContext& ctx) {
  require(cdfg_ == &ctx.mapper.cdfg() && profile_ == &ctx.profile,
          "AxisMemo::run: the context is not the bound app");
  IncrementalSplit start(ctx.mapper, ctx.profile, ctx.options.cost);
  std::vector<std::uint64_t> key = walk_header(kind, ctx, start);
  for (const ir::BlockId block : movable_kernels(kind, ctx)) {
    start.append_block_row(block, key);
  }
  const auto [walk, inserted] = walks_.try_emplace(std::move(key));
  if (!inserted) {
    ++hits_;
    return walk->second;
  }
  try {
    walk->second = run_strategy(kind, ctx);
  } catch (...) {
    walks_.erase(walk);  // a failed walk must not answer later lookups
    throw;
  }
  return walk->second;
}

}  // namespace amdrel::core
