#include "core/axis_memo.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace amdrel::core {

namespace {

void append_bits(std::vector<std::uint64_t>& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value, "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof bits);
  out.push_back(bits);
}

bool same_analysis(const analysis::AnalysisOptions& a,
                   const analysis::AnalysisOptions& b) {
  return a.weights.alu == b.weights.alu && a.weights.mul == b.weights.mul &&
         a.weights.div == b.weights.div && a.weights.mem == b.weights.mem &&
         a.loops_only == b.loops_only && a.min_exec_freq == b.min_exec_freq;
}

// The header of a walk's key: the starting split first (it differs
// between most platforms, so map lookups part early), then everything
// else a strategy reads besides the touched blocks' rows.
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
    append_bits(header, cell.energy_budget_pj);
  }
  header.push_back(ctx.kernels.size());
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    header.push_back(static_cast<std::uint64_t>(kernel.block));
    header.push_back(kernel.cgc_eligible ? 1 : 0);
  }
  return header;
}

// Re-reads `walk`'s rows on `start`'s mapper in first-touch order and
// stops at the first row that differs, so only blocks the walk would
// touch on this mapper get scheduled.
bool rows_match(const std::vector<ir::BlockId>& touches,
                const std::vector<std::uint64_t>& rows,
                IncrementalSplit& start, std::vector<std::uint64_t>& row) {
  std::size_t offset = 0;
  for (const ir::BlockId block : touches) {
    row.clear();
    start.append_block_row(block, row);
    if (rows.size() - offset < row.size() ||
        !std::equal(row.begin(), row.end(),
                    rows.begin() + static_cast<std::ptrdiff_t>(offset))) {
      return false;
    }
    offset += row.size();
  }
  return offset == rows.size();
}

}  // namespace

void AxisMemo::bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile) {
  if (cdfg_ == &cdfg && profile_ == &profile) return;
  cdfg_ = &cdfg;
  profile_ = &profile;
  analysis_.reset();
  kernels_.clear();
  by_header_.clear();
  walks_ = 0;
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
  std::vector<Walk>& stored = by_header_[walk_header(kind, ctx, start)];
  std::vector<std::uint64_t> row;
  for (const Walk& walk : stored) {
    if (rows_match(walk.touches, walk.rows, start, row)) {
      ++hits_;
      return walk.results;
    }
  }

  Walk walk;
  std::vector<ir::BlockId> touches;
  AxisContext logged = ctx;
  logged.first_touches = &touches;
  walk.results = run_strategy(kind, logged);
  // Searches that price several splits (exhaustive, one per cell)
  // touch a block once per split; the key keeps its first touch.
  std::vector<char> seen(static_cast<std::size_t>(ctx.mapper.cdfg().size()),
                         0);
  for (const ir::BlockId block : touches) {
    char& once = seen[static_cast<std::size_t>(block)];
    if (once) continue;
    once = 1;
    walk.touches.push_back(block);
    start.append_block_row(block, walk.rows);
  }
  stored.push_back(walk);
  ++walks_;
  return std::move(walk.results);
}

}  // namespace amdrel::core
