#include "core/axis_memo.h"

#include "support/error.h"

namespace amdrel::core {

namespace {

// The header of a walk's key: the starting split first (it differs
// between most platforms, so map lookups part early), then everything
// else a strategy reads besides the movable kernels' rows.
std::vector<std::uint64_t> walk_header(StrategyKind kind,
                                       const AxisContext& ctx,
                                       const IncrementalSplit& start) {
  std::vector<std::uint64_t> header;
  header.reserve(24 + 2 * (ctx.cells.size() + ctx.kernels.size()));
  start.append_walk_header(header);
  header.push_back(key_word(kind));
  append_search_knobs(header, ctx.options);
  header.push_back(ctx.cells.size());
  for (const AxisCell& cell : ctx.cells) {
    append_words(header, cell.timing_constraint, cell.energy_budget_pj);
  }
  header.push_back(ctx.kernels.size());
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    append_words(header, kernel.block, kernel.cgc_eligible);
  }
  return header;
}

}  // namespace

void AxisMemo::bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile) {
  if (cdfg_ == &cdfg && profile_ == &profile) return;
  cdfg_ = &cdfg;
  profile_ = &profile;
  app_key_.reset();
  facts_.reset();
  fine_.clear();
  coarse_.clear();
  analysis_key_.clear();
  kernels_.clear();
  walks_.clear();
}

const Fingerprint& AxisMemo::app_key() {
  require(cdfg_ != nullptr, "AxisMemo::app_key: no app bound");
  if (!app_key_) app_key_ = app_fingerprint(*cdfg_, *profile_);
  return *app_key_;
}

HybridMapper AxisMemo::mapper(const platform::Platform& platform) {
  require(cdfg_ != nullptr, "AxisMemo::mapper: no app bound");
  platform::validate_platform(platform);
  if (!facts_) facts_ = std::make_shared<const BlockFacts>(*cdfg_);
  std::vector<std::uint64_t> key;
  append_key(key, platform.fpga);
  append_key(key, platform.memory);
  auto fine = fine_.find(key);
  if (fine == fine_.end()) {
    // Built before it is stored, so a mapping that throws leaves no
    // table to answer the next lookup.
    auto built = std::make_shared<const FineTables>(*cdfg_, *facts_,
                                                    platform.fpga,
                                                    platform.memory);
    fine = fine_.emplace(std::move(key), std::move(built)).first;
  }
  std::vector<std::uint64_t> coarse_key;
  append_key(coarse_key, platform.cgc);
  std::shared_ptr<CoarseTables>& coarse = coarse_[std::move(coarse_key)];
  if (!coarse) {
    coarse = std::make_shared<CoarseTables>(
        static_cast<std::size_t>(cdfg_->size()));
  }
  return HybridMapper(*cdfg_, platform, facts_, fine->second, coarse);
}

const std::vector<analysis::KernelInfo>& AxisMemo::kernels(
    const analysis::AnalysisOptions& options) {
  require(cdfg_ != nullptr, "AxisMemo::kernels: no app bound");
  std::vector<std::uint64_t> key;
  append_key(key, options);
  if (key != analysis_key_) {
    kernels_ = analysis::extract_kernels(*cdfg_, *profile_, options);
    analysis_key_ = std::move(key);
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
