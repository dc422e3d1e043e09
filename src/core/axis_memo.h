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
///   - then one row per block the walk touched, in the order it first
///     resolved each block's coarse price
///     (IncrementalSplit::append_block_row).
/// A lookup rebuilds the header on the current mapper and re-reads the
/// stored rows there in that order, stopping at the first mismatch. A
/// walk's next touch depends only on the rows it has already read, so a
/// lookup schedules on the mapper a prefix of the CGC blocks the walk
/// itself would schedule, and a hit leaves the mapper exactly as the
/// walk would. Results, lazily built schedules and mapper snapshots are
/// therefore identical with or without a memo.
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
  std::size_t walks() const { return walks_; }
  /// run() calls answered from a stored walk since construction.
  std::size_t hits() const { return hits_; }

 private:
  struct Walk {
    std::vector<ir::BlockId> touches;  ///< first-touch order
    std::vector<std::uint64_t> rows;   ///< one row per touch, same width
    std::vector<StrategyResult> results;
  };

  const ir::Cdfg* cdfg_ = nullptr;
  const ir::ProfileData* profile_ = nullptr;
  std::optional<analysis::AnalysisOptions> analysis_;
  std::vector<analysis::KernelInfo> kernels_;
  std::map<std::vector<std::uint64_t>, std::vector<Walk>> by_header_;
  std::size_t walks_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace amdrel::core
