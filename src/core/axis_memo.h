#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/kernels.h"
#include "core/fingerprint.h"
#include "core/strategy.h"

namespace amdrel::core {

/// Shares the work of a sweep across the platforms of one app. A sweep
/// prices every (strategy, ordering) axis of an app on many platforms.
/// The memo keeps, for the bound app:
///   - the mapper tables (core/hybrid_mapper.h): one BlockFacts, one
///     FineTables per FPGA and memory model, and one lazily filled
///     CoarseTables per CGC model. mapper() hands each platform a
///     HybridMapper view over them, so a block is mapped once per
///     A_FPGA and scheduled once per CGC count, not once per platform.
///     The fine-table key is every FpgaModel and MemoryModel field and
///     the coarse-table key every CgcModel field, doubles by their
///     bits, never grid coordinates: hand-built platforms that differ
///     in any field get tables of their own. A build that throws (an
///     operation larger than A_FPGA) stores nothing.
///   - the extract_kernels list and each distinct walk's results. Past
///     an app's saturation points (its DFGs fit the FPGA area, its CGC
///     schedules stop shrinking) two platforms price every kernel a
///     walk touches the same, so such a walk runs once per app.
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
/// Not thread-safe, and neither are its views, which share CGC
/// schedules: each thread computing sweep shards keeps its own memo.
class AxisMemo {
 public:
  /// Binds the memo to one app. A different (cdfg, profile) pair than
  /// the bound one empties the memo first.
  void bind(const ir::Cdfg& cdfg, const ir::ProfileData& profile);

  /// app_fingerprint of the bound app, the app part of its sweep cache
  /// keys, computed on the first call after a bind.
  const Fingerprint& app_key();

  /// A mapper for the bound app on `platform`, a view over the memo's
  /// tables that builds whichever of them is missing. `platform` must
  /// outlive the view; the tables outlive the memo's next bind() while
  /// a view holds them.
  HybridMapper mapper(const platform::Platform& platform);

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
  std::optional<Fingerprint> app_key_;
  std::shared_ptr<const BlockFacts> facts_;
  std::map<std::vector<std::uint64_t>, std::shared_ptr<const FineTables>>
      fine_;
  std::map<std::vector<std::uint64_t>, std::shared_ptr<CoarseTables>> coarse_;
  std::optional<analysis::AnalysisOptions> analysis_;
  std::vector<analysis::KernelInfo> kernels_;
  std::map<std::vector<std::uint64_t>, std::vector<StrategyResult>> walks_;
  std::size_t hits_ = 0;
};

}  // namespace amdrel::core
