// Design-space exploration on synthetic applications: sweeps the FPGA
// area and the CGC data-path size over randomly generated loop-nest
// CDFGs, then sweeps the constraint x strategy x ordering grid of one
// platform — the experiments to run before committing to a platform
// configuration.

#include <cstdio>

#include "core/explorer.h"
#include "core/methodology.h"
#include "core/report.h"
#include "synth/cdfg_generator.h"

using namespace amdrel;

int main() {
  synth::CdfgGenConfig config;
  config.segments = 5;
  config.max_loop_depth = 2;
  config.min_trip = 16;
  config.max_trip = 128;
  config.seed = 7;
  const synth::SyntheticApp app = synth::generate_app(config);
  std::printf("synthetic app: %d blocks, %llu total block executions\n",
              app.cdfg.size(),
              static_cast<unsigned long long>(app.profile.total()));

  // Area sweep at two data-path sizes.
  core::TextTable table({"A_FPGA", "initial", "2 CGCs final", "2 CGCs red%",
                         "3 CGCs final", "3 CGCs red%"});
  for (const double area : {800.0, 1500.0, 3000.0, 5000.0, 8000.0}) {
    std::vector<std::string> row = {std::to_string(static_cast<int>(area))};
    std::string initial;
    for (const int cgcs : {2, 3}) {
      const auto p = platform::make_paper_platform(area, cgcs);
      core::HybridMapper probe(app.cdfg, p);
      const std::int64_t all_fine = probe.all_fine_cycles(app.profile);
      if (initial.empty()) {
        initial = core::with_thousands(all_fine);
        row.push_back(initial);
      }
      // Push as far as the engine can: unlimited ambition, keep best.
      core::MethodologyOptions options;
      options.stop_when_met = false;
      options.skip_unprofitable = true;
      const auto report =
          core::run_methodology(app.cdfg, app.profile, p, 1, options);
      row.push_back(core::with_thousands(report.final_cycles));
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.1f",
                    report.reduction_percent());
      row.push_back(buffer);
    }
    table.add_row(std::move(row));
  }
  std::printf("\nbest-effort reduction across the platform grid:\n%s\n",
              table.to_string().c_str());

  // How close is the paper's greedy ordering to the optimum on this app?
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper probe(app.cdfg, p);
  const std::int64_t constraint = probe.all_fine_cycles(app.profile) / 2;
  const auto greedy =
      core::run_methodology(app.cdfg, app.profile, p, constraint);
  core::MethodologyOptions exhaustive;
  exhaustive.strategy = core::StrategyKind::kExhaustive;
  exhaustive.exhaustive_max_kernels = 14;
  const auto optimal = core::run_methodology(app.cdfg, app.profile, p,
                                             constraint, exhaustive);
  std::printf("constraint %s: greedy moved %zu kernels (final %s), "
              "the exhaustive search moves %zu (final %s, %s), %d search "
              "nodes visited\n",
              core::with_thousands(constraint).c_str(), greedy.moved.size(),
              core::with_thousands(greedy.final_cycles).c_str(),
              optimal.moved.size(),
              core::with_thousands(optimal.final_cycles).c_str(),
              optimal.met ? "met" : "not met", optimal.engine_iterations);

  // Full design-space exploration: constraints x strategies x orderings
  // on the default one-point platform grid (A_FPGA 1500, 2 CGCs), with
  // the Pareto front over (final cycles, kernels moved, energy).
  // Constraints are left empty, so the sweep covers 1/4, 1/2 and 3/4 of
  // the all-fine-grain cycles.
  const std::vector<core::CorpusApp> corpus = {
      {"synthetic", app.cdfg, app.profile}};
  core::SweepSpec spec;
  spec.orderings = {core::KernelOrdering::kWeightDescending,
                    core::KernelOrdering::kBenefitDescending};
  const auto summary = core::sweep_design_space(corpus, spec);
  std::printf("\nexploration sweep (%zu grid points):\n%s",
              summary.cells.size(), core::describe(summary).c_str());
  return 0;
}
