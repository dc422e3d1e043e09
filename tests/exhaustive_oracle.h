// The brute-force reference for the branch-and-bound kExhaustive
// strategy: it prices every subset of the top-k eligible kernels with a
// full test::evaluate. Its objective is the strategy's: the
// fewest moves that meet the constraint (ties: fewest cycles), else the
// fewest cycles.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "support/error.h"
#include "test_helpers.h"

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
/// kernels (capped to keep 2^k tractable) and returns the optima.
inline OptimalSplit exhaustive_optimal(
    const ir::Cdfg& cdfg, const ir::ProfileData& profile,
    const platform::Platform& platform, std::int64_t timing_constraint_cycles,
    int max_kernels = 16, const analysis::AnalysisOptions& options = {}) {
  require(max_kernels >= 0 && max_kernels <= 24,
          "exhaustive_optimal: max_kernels must be in [0, 24]");
  HybridMapper mapper(cdfg, platform);

  std::vector<analysis::KernelInfo> kernels =
      analysis::extract_kernels(cdfg, profile, options);
  std::vector<ir::BlockId> candidates;
  for (const auto& kernel : kernels) {
    if (!kernel.cgc_eligible) continue;
    candidates.push_back(kernel.block);
    if (static_cast<int>(candidates.size()) >= max_kernels) break;
  }

  OptimalSplit result;
  result.best_cycles = mapper.all_fine_cycles(profile);
  result.best_cycles_subset = {};

  const std::size_t n = candidates.size();
  std::size_t best_moves = n + 1;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<ir::BlockId> moved;
    for (std::size_t bit = 0; bit < n; ++bit) {
      if (mask & (std::size_t{1} << bit)) moved.push_back(candidates[bit]);
    }
    const SplitCost cost = test::evaluate(mapper, profile, moved);
    result.subsets_evaluated++;
    if (cost.total() < result.best_cycles) {
      result.best_cycles = cost.total();
      result.best_cycles_subset = moved;
    }
    if (cost.total() <= timing_constraint_cycles) {
      const bool first = !result.fewest_moves.has_value();
      const bool fewer = moved.size() < best_moves;
      const bool same_but_faster =
          !first && moved.size() == best_moves &&
          cost.total() < result.fewest_moves_cycles;
      if (first || fewer || same_but_faster) {
        best_moves = moved.size();
        result.fewest_moves = moved;
        result.fewest_moves_cycles = cost.total();
      }
    }
  }
  return result;
}

}  // namespace amdrel::core
