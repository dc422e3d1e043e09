#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/kernels.h"
#include "core/strategy.h"

namespace amdrel::core {

/// Shares the work of run_methodology_axis across the platforms of one
/// app. A sweep prices every (strategy, ordering) axis of an app on many
/// platforms, and past an app's saturation points (its DFGs fit the
/// FPGA area, its CGC schedules stop shrinking) two platforms price
/// every kernel a walk touches the same. The memo keeps the app's
/// extract_kernels list and each distinct walk's results, so such a
/// walk runs once per app.
///
/// A stored walk is keyed exactly, never by hash or platform name:
///   - a header holding the strategy and every option a strategy reads,
///     the open cells, the ordered kernel list with eligibility, and
///     the starting split's bits (IncrementalSplit::append_walk_header);
///   - then one row per kernel the strategy may move (movable_kernels,
///     core/strategy.h), in kernel-list order
///     (IncrementalSplit::append_block_row).
/// No strategy reads any other block's terms, so two contexts with one
/// key price the same walk. Building a key schedules every movable
/// kernel on the CGC, hit or miss: a memoized axis may leave more
/// blocks scheduled on the mapper than a memo-free one, never fewer,
/// and never different results.
///
/// Not thread-safe: a sweep gives each pool thread its own memo.
class AxisMemo {
 public:
  /// Binds the memo to one app. A different (cdfg, profile) pair than
  /// the bound one empties the memo first.
  void bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile);

  /// extract_kernels of the bound app, computed once per analysis
  /// options.
  const std::vector<analysis::KernelInfo>& kernels(
      const analysis::AnalysisOptions& options);

  /// run_strategy(kind, ctx) for the bound app, or the results of a
  /// stored walk whose key matches ctx on ctx.mapper.
  std::vector<StrategyResult> run(StrategyKind kind, const AxisContext& ctx);

  /// Walks stored for the bound app.
  std::size_t walks() const { return walks_.size(); }
  /// run() calls answered from a stored walk since construction.
  std::size_t hits() const { return hits_; }

 private:
  const ir::Cdfg* cdfg_ = nullptr;
  const ir::ProfileData* profile_ = nullptr;
  std::optional<analysis::AnalysisOptions> analysis_;
  std::vector<analysis::KernelInfo> kernels_;
  std::map<std::vector<std::uint64_t>, std::vector<StrategyResult>> walks_;
  std::size_t hits_ = 0;
};

}  // namespace amdrel::core
