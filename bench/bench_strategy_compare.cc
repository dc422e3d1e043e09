// Strategy comparison: the three PartitionStrategy implementations on
// both paper workloads (solution quality), plus scaling evidence that the
// engine's incremental split costing prices each kernel movement in O(1).
// BM_EngineIncremental runs the refactored greedy engine; the
// BM_EngineFullReprice reference replicates the pre-refactor loop that
// re-summed every block per move via HybridMapper::evaluate. On an
// app with B blocks and K candidate moves the former is O(B + K), the
// latter O(B * K) — visible in the reported Complexity.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/methodology.h"
#include "core/report.h"
#include "core/strategy.h"
#include "synth/cdfg_generator.h"
#include "workloads/paper_models.h"

namespace {

using namespace amdrel;

void print_strategy_comparison(const workloads::PaperApp& app,
                               std::int64_t constraint, const char* caption) {
  const auto p = platform::make_paper_platform(1500, 2);
  std::printf("%s (A_FPGA=1500, two 2x2 CGCs, constraint %s)\n", caption,
              core::with_thousands(constraint).c_str());

  core::TextTable table({"strategy", "kernels moved", "final cycles",
                         "% reduction", "met", "splits priced"});
  core::HybridMapper mapper(app.cdfg, p);
  for (const core::StrategyKind strategy : core::all_strategies()) {
    core::MethodologyOptions options;
    options.strategy = strategy;
    const auto report =
        core::run_methodology(mapper, app.profile, constraint, options);
    char reduction[32];
    std::snprintf(reduction, sizeof reduction, "%.1f",
                  report.reduction_percent());
    table.add_row({core::strategy_name(strategy),
                   std::to_string(report.moved.size()),
                   core::with_thousands(report.final_cycles), reduction,
                   report.met ? "yes" : "no",
                   std::to_string(report.engine_iterations)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

synth::SyntheticApp make_scaling_app(int segments) {
  synth::CdfgGenConfig config;
  config.segments = segments;
  config.max_loop_depth = 2;
  config.seed = 42;
  return synth::generate_app(config);
}

core::MethodologyOptions full_sweep_options() {
  core::MethodologyOptions options;
  options.stop_when_met = false;  // force the engine over every candidate
  return options;
}

void BM_EngineIncremental(benchmark::State& state) {
  const auto app = make_scaling_app(static_cast<int>(state.range(0)));
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const auto options = full_sweep_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_methodology(mapper, app.profile, /*constraint=*/1, options));
  }
  state.SetComplexityN(app.cdfg.size());
}
BENCHMARK(BM_EngineIncremental)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

// The pre-refactor engine loop: one full HybridMapper::evaluate per
// candidate movement, kept here as the scaling reference.
void BM_EngineFullReprice(benchmark::State& state) {
  const auto app = make_scaling_app(static_cast<int>(state.range(0)));
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const auto kernels = analysis::extract_kernels(app.cdfg, app.profile);
  for (auto _ : state) {
    core::SplitCost best;
    best.t_fpga = mapper.all_fine_cycles(app.profile);
    std::vector<ir::BlockId> moved;
    for (const auto& kernel : kernels) {
      if (!kernel.cgc_eligible) continue;
      std::vector<ir::BlockId> trial = moved;
      trial.push_back(kernel.block);
      const core::SplitCost cost = mapper.evaluate(app.profile, trial);
      moved = std::move(trial);
      if (cost.total() < best.total()) best = cost;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetComplexityN(app.cdfg.size());
}
BENCHMARK(BM_EngineFullReprice)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

// ---- batched engine vs the legacy per-cell path --------------------
// The data-oriented core prices whole constraint axes from one strategy
// walk. The pair below measures the batched axis against the per-cell
// runs it displaced, so the gap itself is pinned.

void BM_PackedVsLegacy_BatchedAxis(benchmark::State& state) {
  const auto app = make_scaling_app(16);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
  std::vector<core::AxisCell> cells;
  for (int i = 1; i <= 8; ++i) cells.push_back({i * all_fine / 9, 0.0});
  const core::MethodologyOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_methodology_axis(mapper, app.profile, cells, options));
  }
}
BENCHMARK(BM_PackedVsLegacy_BatchedAxis);

void BM_PackedVsLegacy_PerCellAxis(benchmark::State& state) {
  const auto app = make_scaling_app(16);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
  const core::MethodologyOptions options;
  for (auto _ : state) {
    for (int i = 1; i <= 8; ++i) {
      benchmark::DoNotOptimize(core::run_methodology(
          mapper, app.profile, i * all_fine / 9, options));
    }
  }
}
BENCHMARK(BM_PackedVsLegacy_PerCellAxis);

// ---- reconfiguration-aware pricing overhead ------------------------
// Reconfiguration pricing is free when off (IncrementalSplit's additive
// fast path skips the repricing machinery entirely) and O(|moved| log
// |moved|) per move when on. This pair pins both sides: a greedy
// methodology run under the additive model vs the identical run with a
// nonzero reconfiguration model (residency top-R repricing active on
// every move).

void BM_ReconfigCost_Additive(benchmark::State& state) {
  const auto app = make_scaling_app(16);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const auto options = full_sweep_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_methodology(mapper, app.profile, /*constraint=*/1, options));
  }
}
BENCHMARK(BM_ReconfigCost_Additive);

void BM_ReconfigCost_Reconfig(benchmark::State& state) {
  const auto app = make_scaling_app(16);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  auto options = full_sweep_options();
  options.cost.reconfig.bitstream_cycles_per_unit = 2.5;
  options.cost.reconfig.prefetch_overlap = 0.25;
  options.cost.reconfig.floorplan_cost_per_unit = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_methodology(mapper, app.profile, /*constraint=*/1, options));
  }
}
BENCHMARK(BM_ReconfigCost_Reconfig);

}  // namespace

int main(int argc, char** argv) {
  print_strategy_comparison(workloads::build_ofdm_model(),
                            workloads::kOfdmTimingConstraint,
                            "Strategy comparison, OFDM");
  print_strategy_comparison(workloads::build_jpeg_model(),
                            workloads::kJpegTimingConstraint,
                            "Strategy comparison, JPEG");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
