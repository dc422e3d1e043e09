#include "core/methodology.h"

#include <algorithm>
#include <map>
#include <random>

#include "core/axis_memo.h"
#include "core/energy.h"
#include "core/strategy.h"
#include "support/error.h"

namespace amdrel::core {

namespace {

std::vector<analysis::KernelInfo> order_kernels(
    std::vector<analysis::KernelInfo> kernels, HybridMapper& mapper,
    const MethodologyOptions& options) {
  switch (options.ordering) {
    case KernelOrdering::kWeightDescending:
      // extract_kernels already returns this order.
      break;
    case KernelOrdering::kCodeOrder:
      std::sort(kernels.begin(), kernels.end(),
                [](const auto& a, const auto& b) { return a.block < b.block; });
      break;
    case KernelOrdering::kRandom: {
      std::mt19937_64 rng(options.random_seed);
      std::shuffle(kernels.begin(), kernels.end(), rng);
      break;
    }
    case KernelOrdering::kBenefitDescending: {
      std::vector<std::pair<std::int64_t, std::size_t>> benefit;
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto& k = kernels[i];
        benefit.emplace_back(mapper.move_benefit_cycles(k.block, k.exec_freq),
                             i);
      }
      std::sort(benefit.begin(), benefit.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      std::vector<analysis::KernelInfo> ordered;
      ordered.reserve(kernels.size());
      for (const auto& [gain, index] : benefit) ordered.push_back(kernels[index]);
      kernels = std::move(ordered);
      break;
    }
  }
  return kernels;
}

}  // namespace

std::vector<PartitionReport> run_methodology_axis(
    HybridMapper& mapper, const ir::ProfileData& profile,
    const std::vector<AxisCell>& cells, const MethodologyOptions& options,
    AxisMemo* memo) {
  // The branch-and-bound lower bound (and the greedy/annealing "best"
  // tracking) assume the combined scalarization is monotone in both
  // axes; a negative weight would make the suffix-gain bound
  // inadmissible and silently return non-optimal "optima".
  require(options.cost.objective.cycle_weight >= 0 &&
              options.cost.objective.energy_weight >= 0,
          "run_methodology: combined-objective weights must be >= 0");

  std::vector<PartitionReport> reports(cells.size());
  if (cells.empty()) return reports;

  // Step 2 once: the all-fine solution is cell-independent. Every
  // report carries energy columns (priced by a deterministic full
  // repricing), so sweeps can front on energy even for timing-driven
  // runs. Cells the all-fine solution already satisfies exit here.
  const std::int64_t initial_cycles = mapper.all_fine_cycles(profile);
  const EnergyBreakdown initial_energy =
      estimate_energy(mapper, profile, {}, options.cost.objective.energy);
  const double initial_pj = initial_energy.total_pj();

  std::vector<std::size_t> open;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    PartitionReport& report = reports[c];
    report.app = mapper.cdfg().name();
    report.timing_constraint = cells[c].timing_constraint;
    report.objective = options.cost.objective.kind;
    report.energy_budget_pj = cells[c].energy_budget_pj;
    report.initial_cycles = initial_cycles;
    report.energy = initial_energy;
    report.initial_energy_pj = initial_pj;
    report.final_cycles = initial_cycles;
    report.cost.t_fpga = initial_cycles;
    if (options.cost.objective.met(initial_cycles, initial_pj,
                              cells[c].timing_constraint,
                              cells[c].energy_budget_pj)) {
      report.initial_meets = true;
      report.met = true;
    } else {
      open.push_back(c);
    }
  }
  if (open.empty()) return reports;

  // Step 3 once: kernel extraction and ordering never consult the
  // constraint or the budget, and extraction not even the platform.
  if (memo) memo->bind(mapper.cdfg(), profile);
  const std::vector<analysis::KernelInfo> kernels = order_kernels(
      memo ? memo->kernels(options.analysis)
           : analysis::extract_kernels(mapper.cdfg(), profile,
                                       options.analysis),
      mapper, options);

  // Steps 4-5: the partitioning engine prices every open cell —
  // greedy/annealing from one shared walk, the exhaustive search per
  // cell (its pruning depends on the constraint).
  std::vector<AxisCell> open_cells;
  open_cells.reserve(open.size());
  for (std::size_t c : open) open_cells.push_back(cells[c]);
  const AxisContext ctx{mapper, profile, options, kernels, open_cells};
  const std::vector<StrategyResult> results =
      memo ? memo->run(options.strategy, ctx)
           : run_strategy(options.strategy, ctx);

  // Reprice each final split's energy from scratch (block order, not
  // the search's move order) so the emitted numbers never depend on the
  // path the strategy walked. Adjacent cells usually stop on the same
  // split, so the (deterministic) repricing is memoized on the moved
  // set.
  std::map<std::vector<ir::BlockId>, EnergyBreakdown> energy_memo;
  for (std::size_t j = 0; j < open.size(); ++j) {
    PartitionReport& report = reports[open[j]];
    const StrategyResult& result = results[j];
    report.kernels_found = kernels.size();
    report.moved = result.moved;
    report.cost = result.cost;
    std::int64_t moved_units = 0;
    for (const ir::BlockId block : report.moved) {
      moved_units += mapper.node_count(block);
    }
    report.floorplan_cost = options.cost.reconfig.floorplan_cost(moved_units);
    report.final_cycles = result.cost.total();
    report.cycles_in_cgc = result.cost.t_coarse;
    auto energy = energy_memo.find(report.moved);
    if (energy == energy_memo.end()) {
      energy = energy_memo
                   .emplace(report.moved,
                            estimate_energy(mapper, profile, report.moved,
                                            options.cost.objective.energy))
                   .first;
    }
    report.energy = energy->second;
    report.met = options.cost.objective.met(report.final_cycles,
                                       report.energy.total_pj(),
                                       report.timing_constraint,
                                       report.energy_budget_pj);
    report.engine_iterations = result.engine_iterations;
  }
  return reports;
}

PartitionReport run_methodology(HybridMapper& mapper,
                                const ir::ProfileData& profile,
                                std::int64_t timing_constraint_cycles,
                                const MethodologyOptions& options) {
  const std::vector<AxisCell> cells = {
      {timing_constraint_cycles, options.cost.energy_budget_pj}};
  return std::move(run_methodology_axis(mapper, profile, cells, options)[0]);
}

PartitionReport run_methodology(const ir::Cdfg& cdfg,
                                const ir::ProfileData& profile,
                                const platform::Platform& platform,
                                std::int64_t timing_constraint_cycles,
                                const MethodologyOptions& options) {
  HybridMapper mapper(cdfg, platform);
  return run_methodology(mapper, profile, timing_constraint_cycles, options);
}

}  // namespace amdrel::core
