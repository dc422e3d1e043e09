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

}  // namespace

void AxisMemo::bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile) {
  if (cdfg_ == &cdfg && profile_ == &profile) return;
  cdfg_ = &cdfg;
  profile_ = &profile;
  analysis_.reset();
  kernels_.clear();
  walks_.clear();
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
