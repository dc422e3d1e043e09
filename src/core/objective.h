#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "platform/reconfig_model.h"

namespace amdrel::core {

/// Per-operation/per-event energy characterization of the platform — the
/// paper's future-work direction ("partitioning an application for
/// satisfying energy consumption constraints"). Defaults reflect the
/// usual fine-vs-coarse asymmetry: word-level operators in ASIC burn a
/// fraction of their FPGA equivalents [Hartenstein'01], while
/// reconfiguration and shared-memory traffic are expensive.
struct EnergyModel {
  // Fine-grain (embedded FPGA), picojoule per executed operation.
  double fpga_alu_pj = 8.0;
  double fpga_mul_pj = 30.0;
  double fpga_div_pj = 110.0;
  double fpga_mem_pj = 16.0;

  // Coarse-grain (CGC data-path, ASIC).
  double cgc_alu_pj = 1.6;
  double cgc_mul_pj = 6.5;
  double cgc_mem_pj = 12.0;

  // Events.
  double reconfiguration_pj = 600000.0;     ///< one full reconfiguration
  double transfer_pj_per_word = 14.0;       ///< fine<->coarse via memory
  double spill_pj_per_word = 14.0;          ///< temporal-partition spill
};

struct EnergyBreakdown {
  double fine_pj = 0;      ///< ops executed on the FPGA
  double coarse_pj = 0;    ///< ops executed on the CGC data-path
  double reconfig_pj = 0;  ///< temporal-partition reconfigurations
  double comm_pj = 0;      ///< fine<->coarse transfers + partition spills

  double total_pj() const {
    return fine_pj + coarse_pj + reconfig_pj + comm_pj;
  }
};

/// Per-block energy contributions of the two sides of a split, all
/// already scaled by the block's execution count. A split's breakdown is
/// the sum of the fine-side terms over unmoved blocks plus the
/// coarse-side terms over moved ones — per-block additive, which is what
/// makes the IncrementalSplit O(1) energy deltas exact (up to float
/// summation order) and the exhaustive strategy's energy bound admissible.
/// Priced by block_energy() in core/energy.h; mirrors
/// HybridMapper::fine_contribution_cycles on the cycle side.
struct BlockEnergy {
  double fine_pj = 0;           ///< ops on the FPGA
  double fine_comm_pj = 0;      ///< temporal-partition spill traffic
  double fine_reconfig_pj = 0;  ///< per-invocation + amortized reconfigs
  double coarse_pj = 0;         ///< ops on the CGC data-path
  double coarse_comm_pj = 0;    ///< fine<->coarse transfers
};

/// What the partitioning engine minimizes and checks constraints
/// against. kTiming is the paper's flow (equation (2), FPGA cycles);
/// kEnergy the energy-constrained variant (section 5's future work);
/// kCombined a weighted scalarization of both, for design points that
/// must trade the two off in one search.
enum class ObjectiveKind {
  kTiming,    ///< minimize total cycles; met when cycles <= constraint
  kEnergy,    ///< minimize total pJ; met when energy <= budget
  kCombined,  ///< minimize weighted sum; met when BOTH limits hold
};

/// The pluggable cost objective every strategy searches under.
/// A split is reduced to one scalar `value` (minimized by all three
/// strategies) plus a `met` predicate (the stop/acceptance test). Both
/// are per-block additive in the underlying terms — the property the
/// IncrementalSplit O(1) deltas and the exhaustive strategy's bound rely
/// on; see the B&B caveat on run_methodology.
struct CostObjective {
  ObjectiveKind kind = ObjectiveKind::kTiming;
  /// Energy prices; used by kEnergy/kCombined searches and for the
  /// energy columns every report and sweep cell carries.
  EnergyModel energy;
  /// kCombined scalarization: value = cycle_weight * cycles +
  /// energy_weight * pJ. Must be non-negative (the branch-and-bound
  /// lower bound is only admissible for monotone weights).
  double cycle_weight = 1.0;
  double energy_weight = 1.0;

  /// True when the search itself needs energy tracking (kEnergy and
  /// kCombined). Timing-only runs skip the per-block energy pricing.
  bool needs_energy() const { return kind != ObjectiveKind::kTiming; }

  /// The scalar every strategy minimizes. Cycle counts convert to
  /// double exactly (they are far below 2^53), so kTiming comparisons
  /// are bit-equivalent to the original integer ones.
  double value(std::int64_t total_cycles, double energy_pj) const;

  /// The constraint test behind `stop_when_met` and PartitionReport::met.
  bool met(std::int64_t total_cycles, double energy_pj,
           std::int64_t timing_constraint, double energy_budget_pj) const;
};

/// Everything that defines WHAT a run optimizes and how movements are
/// priced, grouped so run_methodology, explore, the sweep specs, the
/// fingerprints and IncrementalSplit all consume one struct instead of
/// re-plumbing each knob.
struct ObjectiveSpec {
  /// What the selected strategy minimizes and which constraint(s) `met`
  /// checks: the paper's timing flow, the energy variant, or a weighted
  /// combination. Also carries the EnergyModel that prices every
  /// report's energy columns.
  CostObjective objective;
  /// Energy budget in pJ, the energy-side analogue of the
  /// timing_constraint parameter; consulted by kEnergy/kCombined.
  double energy_budget_pj = 0;
  /// Partial-reconfiguration pricing for moved modules (load latency,
  /// prefetch overlap, region residency, floorplan cost). All-zero
  /// defaults reproduce the additive flow byte-for-byte; see
  /// platform/reconfig_model.h for the charge it prices.
  platform::ReconfigModel reconfig;
};

/// All registered objective kinds, in presentation order.
const std::vector<ObjectiveKind>& all_objectives();

const char* objective_name(ObjectiveKind kind);

/// Inverse of objective_name ("timing", "energy", "combined"); nullopt
/// for unknown names. Shared by the CLI and sweep_io.
std::optional<ObjectiveKind> parse_objective(std::string_view name);

}  // namespace amdrel::core
