#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/methodology.h"

namespace amdrel::core {

// AxisCell lives in core/methodology.h (next to MethodologyOptions) so
// run_methodology_axis can take cells without including this header.

/// Everything a partitioning strategy needs to search the split space
/// for a whole constraint axis: the (cdfg, platform) mapper, the
/// profile, the run options, the ordered kernel candidates from the
/// analysis step, and the cells, which differ only in their
/// stop/acceptance limits. The cost objective (timing cycles, energy pJ,
/// or a weighted combination) rides in options.cost.objective —
/// strategies minimize IncrementalSplit::objective_value() and stop on
/// the objective's met() test, so all three searches serve all three
/// objectives. options.cost.energy_budget_pj is ignored — each cell
/// carries its own budget.
struct AxisContext {
  HybridMapper& mapper;
  const ir::ProfileData& profile;
  const MethodologyOptions& options;
  const std::vector<analysis::KernelInfo>& kernels;  ///< already ordered
  const std::vector<AxisCell>& cells;
};

/// What a strategy hands back to the run_methodology dispatcher.
struct StrategyResult {
  std::vector<ir::BlockId> moved;  ///< in movement/priority order
  SplitCost cost;
  int engine_iterations = 0;  ///< splits priced / search nodes visited
  // Annealing acceptance telemetry (zero for the other strategies):
  // uphill proposals seen and how many the Metropolis test accepted.
  // The temperature-normalization regression test pins the accepted /
  // proposed ratio to the same band across objective spaces.
  int uphill_proposed = 0;
  int uphill_accepted = 0;
};

/// The partitioning engine of paper Figure 2 steps 4-5: decides which
/// analyzed kernels run on the coarse-grain data-path. Returns one
/// StrategyResult per ctx.cells entry, each identical to a run over that
/// cell alone; deterministic for a fixed (ctx, options.random_seed).
///   - greedy: the paper's engine. Commits kernels one by one in the
///     analysis order, re-pricing the split after each movement via
///     O(1) incremental deltas, until the constraint is met.
///   - exhaustive: branch-and-bound over subsets of the top
///     options.exhaustive_max_kernels eligible kernels. Returns the
///     subset meeting the constraint with the fewest moves (ties: fewest
///     cycles); when no subset meets it, the subset minimizing total
///     cycles. Recursion state lives in SmallBitsets so the frontier
///     fits in registers.
///   - annealing: seeded simulated annealing over all eligible kernels,
///     random membership flips with a geometric cooling schedule. Meant
///     for kernel sets too large for the exhaustive search.
/// Greedy commits and annealing acceptance consult only objective
/// values (the limits only decide where each cell stops), so each walks
/// once and finalizes every cell online — turning the sweep's
/// constraints x budgets factor into array scans. Exhaustive searches
/// per cell: its pruning, and thus engine_iterations, depends on the
/// constraint.
///
/// To add a strategy: add a StrategyKind enumerator (core/methodology.h),
/// a search function in strategy.cc dispatched from run_strategy that
/// moves only movable_kernels blocks, and its name in strategy_name /
/// all_strategies.
std::vector<StrategyResult> run_strategy(StrategyKind kind,
                                         const AxisContext& ctx);

/// The kernels run_strategy(kind, ctx) may move, in ctx.kernels order:
/// every CGC-eligible kernel, or for exhaustive the first
/// options.exhaustive_max_kernels of them. No strategy moves, proposes
/// or prices any other block.
std::vector<ir::BlockId> movable_kernels(StrategyKind kind,
                                         const AxisContext& ctx);

/// All registered strategy kinds, in presentation order.
const std::vector<StrategyKind>& all_strategies();

const char* strategy_name(StrategyKind kind);

/// Inverse of strategy_name ("greedy", "exhaustive", "annealing");
/// nullopt for unknown names. Shared by the CLI and perfbench.
std::optional<StrategyKind> parse_strategy(std::string_view name);

/// All kernel orderings, in presentation order.
const std::vector<KernelOrdering>& all_kernel_orderings();

const char* kernel_ordering_name(KernelOrdering ordering);

/// Inverse of kernel_ordering_name ("weight", "benefit", "code",
/// "random"); nullopt for unknown names.
std::optional<KernelOrdering> parse_kernel_ordering(std::string_view name);

}  // namespace amdrel::core
