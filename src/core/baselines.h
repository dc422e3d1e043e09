#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/methodology.h"

namespace amdrel::core {

/// Result of the exhaustive search over kernel subsets — the reference the
/// greedy engine is compared against in the ordering ablation.
struct OptimalSplit {
  /// Subset meeting the constraint with the fewest moved kernels (ties:
  /// fewest cycles); empty optional when no subset meets it.
  std::optional<std::vector<ir::BlockId>> fewest_moves;
  std::int64_t fewest_moves_cycles = 0;

  /// Subset minimizing total cycles regardless of the constraint.
  std::vector<ir::BlockId> best_cycles_subset;
  std::int64_t best_cycles = 0;

  std::size_t subsets_evaluated = 0;
};

/// Exhaustively evaluates every subset of the top `max_kernels` eligible
/// kernels (capped to keep 2^k tractable) and returns the optima. Used to
/// measure how close the paper's greedy weight-ordered engine gets.
OptimalSplit exhaustive_optimal(const ir::Cdfg& cdfg,
                                const ir::ProfileData& profile,
                                const platform::Platform& platform,
                                std::int64_t timing_constraint_cycles,
                                int max_kernels = 16,
                                const analysis::AnalysisOptions& options = {});

}  // namespace amdrel::core
