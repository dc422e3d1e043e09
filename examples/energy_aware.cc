// Energy-constrained partitioning (the paper's stated future work): move
// kernels to the ASIC CGC data-path until the application's energy drops
// under a budget, and inspect the breakdown. The energy variant is
// run_methodology under the energy objective, so the same budget can also
// be searched by branch-and-bound or simulated annealing — compared at
// the bottom.

#include <cstdio>

#include "core/energy.h"
#include "core/report.h"
#include "core/strategy.h"
#include "workloads/paper_models.h"

using namespace amdrel;

namespace {

void print_breakdown(const char* label, const core::EnergyBreakdown& e) {
  std::printf("%-28s fine %10.1f nJ | coarse %8.1f nJ | reconfig %8.1f nJ "
              "| comm %8.1f nJ | total %10.1f nJ\n",
              label, e.fine_pj / 1000.0, e.coarse_pj / 1000.0,
              e.reconfig_pj / 1000.0, e.comm_pj / 1000.0,
              e.total_pj() / 1000.0);
}

}  // namespace

int main() {
  const workloads::PaperApp app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);

  const auto all_fine = core::estimate_energy(app.cdfg, app.profile, p, {});
  print_breakdown("all fine-grain:", all_fine);

  const auto hot_moved = core::estimate_energy(
      app.cdfg, app.profile, p, {app.block_by_label("BB22")});
  print_breakdown("BB22 on CGC data-path:", hot_moved);

  // Ask the engine for a 50% energy cut. Under the energy objective
  // met() checks the budget and ignores the timing constraint.
  const double budget = all_fine.total_pj() * 0.5;
  core::MethodologyOptions energy;
  energy.cost.objective.kind = core::ObjectiveKind::kEnergy;
  energy.cost.energy_budget_pj = budget;
  const auto report = core::run_methodology(app.cdfg, app.profile, p,
                                            /*timing_constraint=*/0, energy);
  std::printf("\nenergy budget %.1f nJ (50%% of all-fine): %s after moving",
              budget / 1000.0, report.met ? "met" : "NOT met");
  for (const ir::BlockId block : report.moved) {
    std::printf(" %s", app.cdfg.block(block).name.c_str());
  }
  std::printf("\n");
  print_breakdown("after energy partitioning:", report.energy);
  std::printf("energy reduction: %.1f%%\n",
              report.energy_reduction_percent());

  // The same budget through every strategy of the shared engine: the
  // branch-and-bound proves the fewest-moves split, annealing matches
  // greedy on a kernel set this small.
  std::printf("\nstrategy comparison at a %.1f nJ budget:\n",
              budget / 1000.0);
  bool all_met = true;
  for (const core::StrategyKind kind : core::all_strategies()) {
    core::MethodologyOptions options = energy;
    options.strategy = kind;
    options.exhaustive_max_kernels = 12;
    const auto result = core::run_methodology(
        app.cdfg, app.profile, p, /*timing_constraint=*/0, options);
    std::printf("  %-10s %s, %zu kernel(s) moved, %10.1f nJ\n",
                core::strategy_name(kind),
                result.met ? "met    " : "NOT met",
                result.moved.size(), result.energy.total_pj() / 1000.0);
    all_met = all_met && result.met;
  }
  return report.met && all_met ? 0 : 1;
}
