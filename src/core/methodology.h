#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/kernels.h"
#include "core/hybrid_mapper.h"
#include "core/objective.h"
#include "ir/cdfg.h"
#include "ir/profile.h"
#include "platform/platform.h"

namespace amdrel::core {

/// How the partitioning engine orders candidate kernels before moving
/// them one by one. kWeightDescending is the paper's policy (analysis
/// step orders kernels by decreasing total weight); the others exist for
/// the ablation studies.
enum class KernelOrdering {
  kWeightDescending,   ///< paper: total_weight = exec_freq * bb_weight
  kBenefitDescending,  ///< measured cycle savings of moving the kernel
  kCodeOrder,          ///< source order (block id)
  kRandom,             ///< seeded shuffle
};

/// Which search run_strategy dispatches to (see core/strategy.h).
enum class StrategyKind {
  kGreedyPaper,  ///< paper Figure 2 steps 4-5: move kernels in order
  kExhaustive,   ///< branch-and-bound optimum over small kernel sets
  kAnnealing,    ///< seeded simulated annealing for large kernel sets
};

struct MethodologyOptions {
  analysis::AnalysisOptions analysis;
  StrategyKind strategy = StrategyKind::kGreedyPaper;
  KernelOrdering ordering = KernelOrdering::kWeightDescending;
  /// Objective, budget and pricing model, consumed uniformly by every
  /// entry point (run_methodology, explore, sweeps, fingerprints).
  ObjectiveSpec cost;
  std::uint64_t random_seed = 1;
  /// Stop as soon as the constraint is met (the paper's behaviour).
  /// When false, greedy keeps moving every candidate and annealing runs
  /// its full proposal budget, each reporting the best split found.
  /// Ignored by the exhaustive search, which always proves its optimum.
  bool stop_when_met = true;
  /// Skip moves that would increase total time. The paper's engine does
  /// not check profitability (a kernel is assumed to accelerate on the
  /// CGC); enable for the ablation. Greedy only.
  bool skip_unprofitable = false;
  /// Candidate cap for kExhaustive: only the first N eligible kernels (in
  /// the chosen ordering) enter the branch-and-bound search.
  int exhaustive_max_kernels = 18;
  /// Proposal count for kAnnealing; the random walk is seeded from
  /// random_seed, so runs are reproducible.
  int anneal_iterations = 4000;
};

/// Result of the whole methodology run — one column of the paper's
/// Table 2/3 plus diagnostics.
struct PartitionReport {
  std::string app;
  std::int64_t timing_constraint = 0;
  ObjectiveKind objective = ObjectiveKind::kTiming;
  double energy_budget_pj = 0;

  std::int64_t initial_cycles = 0;  ///< all-fine-grain solution (step 2)
  double initial_energy_pj = 0;     ///< all-fine-grain energy
  bool initial_meets = false;       ///< methodology exits at step 2 if true

  /// Length of the step-3 kernel list the engine searched (0 when the
  /// all-fine solution already meets). The list itself is recomputable
  /// from (cdfg, profile, options), so reports carry only its size.
  std::size_t kernels_found = 0;
  std::vector<ir::BlockId> moved;  ///< in movement order

  SplitCost cost;              ///< final t_FPGA / t_coarse / t_comm
  std::int64_t final_cycles = 0;
  std::int64_t cycles_in_cgc = 0;  ///< t_coarse (the tables' "Cycles in CGC")
  /// Energy of the final split under options.cost.objective.energy, priced by
  /// a deterministic full repricing (estimate_energy) whatever the
  /// objective — every report carries energy columns, so sweeps can
  /// Pareto-front on energy even for timing-driven runs.
  EnergyBreakdown energy;
  /// Area-equivalent floorplan charge for the PR regions the moved
  /// modules occupy (options.cost.reconfig.floorplan_cost_per_unit ×
  /// moved units). Reported next to platform_cost — the sweep's Pareto
  /// platform-cost axis adds it — never folded into the cycle objective.
  double floorplan_cost = 0;
  bool met = false;       ///< options.cost.objective.met(...) on the final split
  int engine_iterations = 0;

  double reduction_percent() const {
    if (initial_cycles == 0) return 0.0;
    return 100.0 * (1.0 - static_cast<double>(final_cycles) /
                              static_cast<double>(initial_cycles));
  }

  double energy_reduction_percent() const {
    return initial_energy_pj == 0.0
               ? 0.0
               : 100.0 * (1.0 - energy.total_pj() / initial_energy_pj);
  }
};

/// One (timing constraint, energy budget) cell of a batched constraint
/// axis (see run_methodology_axis / run_strategy).
/// options.cost.energy_budget_pj is ignored on the axis path — each cell
/// carries its own budget.
struct AxisCell {
  std::int64_t timing_constraint = 0;
  double energy_budget_pj = 0;
};

/// Runs the complete flow of paper Figure 2: CDFG in, fine-grain mapping,
/// timing check, analysis, then the partitioning engine (the strategy
/// selected by options.strategy) moving kernels to the coarse-grain
/// data-path until the constraint is satisfied.
PartitionReport run_methodology(const ir::Cdfg& cdfg,
                                const ir::ProfileData& profile,
                                const platform::Platform& platform,
                                std::int64_t timing_constraint_cycles,
                                const MethodologyOptions& options = {});

/// Same flow on a caller-owned mapper, so sweeps over many constraints or
/// strategies reuse one (cdfg, platform) mapping instead of re-mapping
/// every block per run (the sweep's hot path).
PartitionReport run_methodology(HybridMapper& mapper,
                                const ir::ProfileData& profile,
                                std::int64_t timing_constraint_cycles,
                                const MethodologyOptions& options = {});

class AxisMemo;

/// Prices a whole constraint axis — every (timing constraint, energy
/// budget) cell over one fixed (mapper, profile, strategy, ordering) —
/// in a single pass: the all-fine baseline, kernel extraction and
/// ordering run once (they are cell-independent), and strategies whose
/// walk does not consult the constraint (greedy, annealing) price all
/// cells from one shared walk via run_strategy. Each
/// returned report is byte-identical to a standalone run_methodology
/// with that cell's constraint and budget (the sweep goldens
/// pin this). Cells already met by the all-fine solution early-exit
/// with kernels_found 0, exactly like the single-cell flow.
/// With a memo (core/axis_memo.h), bound here to (mapper.cdfg(),
/// profile), the app's kernel list is extracted once and a walk whose
/// inputs an earlier axis on another platform already priced is reused;
/// the reports are the same as without it, and the mapper has also
/// scheduled every kernel the strategy may move (movable_kernels).
std::vector<PartitionReport> run_methodology_axis(
    HybridMapper& mapper, const ir::ProfileData& profile,
    const std::vector<AxisCell>& cells,
    const MethodologyOptions& options = {}, AxisMemo* memo = nullptr);

}  // namespace amdrel::core
