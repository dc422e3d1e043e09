// Extension study: energy-constrained partitioning (paper section 5's
// future work). Prints the energy breakdown of the all-fine solution and
// of the timing- and energy-driven splits across the platform grid.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/energy.h"
#include "core/explorer.h"
#include "core/methodology.h"
#include "core/report.h"
#include "core/sweep_io.h"
#include "workloads/paper_models.h"

namespace {

using namespace amdrel;

std::string njoule(double pj) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", pj / 1000.0);
  return buffer;
}

void print_energy_study(const workloads::PaperApp& app,
                        std::int64_t timing_constraint, const char* caption) {
  std::printf("%s\n", caption);
  core::TextTable table({"A_FPGA", "split", "fine nJ", "coarse nJ",
                         "reconfig nJ", "comm nJ", "total nJ", "vs all-fine"});
  for (const double area : {1500.0, 5000.0}) {
    const auto p = platform::make_paper_platform(area, 2);
    const auto all_fine =
        core::estimate_energy(app.cdfg, app.profile, p, {});

    auto add = [&](const char* name, const core::EnergyBreakdown& e) {
      char ratio[32];
      std::snprintf(ratio, sizeof ratio, "%.1f%%",
                    100.0 * e.total_pj() / all_fine.total_pj());
      table.add_row({std::to_string(static_cast<int>(area)), name,
                     njoule(e.fine_pj), njoule(e.coarse_pj),
                     njoule(e.reconfig_pj), njoule(e.comm_pj),
                     njoule(e.total_pj()), ratio});
    };
    add("all fine-grain", all_fine);

    const auto timing = core::run_methodology(app.cdfg, app.profile, p,
                                              timing_constraint);
    add("timing-driven split",
        core::estimate_energy(app.cdfg, app.profile, p, timing.moved));

    core::MethodologyOptions energy_options;
    energy_options.cost.objective.kind = core::ObjectiveKind::kEnergy;
    energy_options.cost.energy_budget_pj = all_fine.total_pj() * 0.5;
    const auto energy = core::run_methodology(
        app.cdfg, app.profile, p, /*timing_constraint=*/0, energy_options);
    add("energy-driven (50% budget)", energy.energy);
  }
  std::printf("%s\n", table.to_string().c_str());
}

void BM_EnergyEstimate(benchmark::State& state) {
  const auto app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::estimate_energy(app.cdfg, app.profile, p, {}));
  }
}
BENCHMARK(BM_EnergyEstimate);

void BM_EnergyMethodology(benchmark::State& state) {
  const auto app = workloads::build_jpeg_model();
  const auto p = platform::make_paper_platform(1500, 2);
  core::MethodologyOptions options;
  options.cost.objective.kind = core::ObjectiveKind::kEnergy;
  options.cost.energy_budget_pj =
      core::estimate_energy(app.cdfg, app.profile, p, {}).total_pj() * 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_methodology(
        app.cdfg, app.profile, p, /*timing_constraint=*/0, options));
  }
}
BENCHMARK(BM_EnergyMethodology);

// Energy-objective design-space sweep over the paper corpus and the
// Table-2/3 platform grid, including the JSON emission — the end-to-end
// hot path of `amdrelc explore --objective energy`.
void BM_EnergySweep(benchmark::State& state) {
  const auto corpus = workloads::paper_corpus();
  core::SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {core::StrategyKind::kGreedyPaper,
                     core::StrategyKind::kExhaustive};
  spec.orderings = {core::KernelOrdering::kWeightDescending};
  spec.base.cost.objective.kind = core::ObjectiveKind::kEnergy;
  spec.base.exhaustive_max_kernels = 10;
  spec.energy_budgets = {1.0e6, 1.18e8, 5.0e9};
  spec.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto summary = core::sweep_design_space(corpus, spec);
    benchmark::DoNotOptimize(core::sweep_to_json(summary));
  }
}
BENCHMARK(BM_EnergySweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_energy_study(workloads::build_ofdm_model(),
                     amdrel::workloads::kOfdmTimingConstraint,
                     "Energy study, OFDM");
  print_energy_study(workloads::build_jpeg_model(),
                     amdrel::workloads::kJpegTimingConstraint,
                     "Energy study, JPEG");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
