#include "core/energy.h"
#include "core/pipeline.h"
#include "core/strategy.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

using workloads::build_jpeg_model;
using workloads::build_ofdm_model;
using workloads::PaperApp;

// The energy-constrained variant of Figure 2: run_methodology under the
// energy objective with `budget_pj` as the budget (met() ignores the
// timing constraint under kEnergy).
PartitionReport run_energy(const PaperApp& app, const platform::Platform& p,
                           double budget_pj,
                           MethodologyOptions options = {}) {
  options.cost.objective.kind = ObjectiveKind::kEnergy;
  options.cost.energy_budget_pj = budget_pj;
  return run_methodology(app.cdfg, app.profile, p, /*timing_constraint=*/0,
                         options);
}

TEST(PipelineTest, PipelineNeverSlowerThanSequential) {
  const PaperApp app = build_ofdm_model();
  const auto report = run_methodology(
      app.cdfg, app.profile, platform::make_paper_platform(1500, 2),
      workloads::kOfdmTimingConstraint);
  for (const int frames : {1, 2, 6}) {
    const PipelineEstimate estimate = estimate_pipeline(report, frames);
    EXPECT_LE(estimate.pipelined_cycles, estimate.sequential_cycles)
        << frames << " frames";
    EXPECT_GE(estimate.speedup(), 1.0);
  }
}

TEST(PipelineTest, SingleFrameHasNoOverlap) {
  const PaperApp app = build_ofdm_model();
  const auto report = run_methodology(
      app.cdfg, app.profile, platform::make_paper_platform(1500, 2),
      workloads::kOfdmTimingConstraint);
  const PipelineEstimate estimate = estimate_pipeline(report, 1);
  EXPECT_EQ(estimate.pipelined_cycles, estimate.sequential_cycles);
}

TEST(PipelineTest, ManyFramesApproachBottleneckRate) {
  const PaperApp app = build_ofdm_model();
  const auto report = run_methodology(
      app.cdfg, app.profile, platform::make_paper_platform(1500, 2),
      workloads::kOfdmTimingConstraint);
  const PipelineEstimate estimate = estimate_pipeline(report, 6);
  const std::int64_t bottleneck =
      std::max(estimate.fine_per_frame, estimate.coarse_per_frame);
  // makespan/frame -> bottleneck as frames grow.
  EXPECT_LT(estimate.pipelined_cycles / 6 - bottleneck,
            (estimate.fine_per_frame + estimate.coarse_per_frame) / 6 + 1);
  // Both units stay busy (the paper's utilization claim): the bottleneck
  // side is >90% utilized.
  EXPECT_GT(std::max(estimate.fine_utilization(),
                     estimate.coarse_utilization()),
            0.9);
}

TEST(PipelineTest, RejectsBadFrameCount) {
  PartitionReport report;
  EXPECT_THROW(estimate_pipeline(report, 0), Error);
}

TEST(EnergyTest, AllFineBreakdownHasNoCoarseTerms) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const EnergyBreakdown breakdown =
      estimate_energy(app.cdfg, app.profile, p, {});
  EXPECT_GT(breakdown.fine_pj, 0.0);
  EXPECT_EQ(breakdown.coarse_pj, 0.0);
  EXPECT_GT(breakdown.reconfig_pj, 0.0);  // BB22 splits at A=1500
}

TEST(EnergyTest, MovingHotKernelSavesEnergy) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const double all_fine =
      estimate_energy(app.cdfg, app.profile, p, {}).total_pj();
  const double with_move =
      estimate_energy(app.cdfg, app.profile, p,
                      {app.block_by_label("BB22")})
          .total_pj();
  EXPECT_LT(with_move, all_fine);
}

TEST(EnergyTest, LargerFpgaNeedsNoReconfigEnergy) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(5000, 2);
  const EnergyBreakdown breakdown =
      estimate_energy(app.cdfg, app.profile, p, {});
  EXPECT_EQ(breakdown.reconfig_pj, 0.0);  // everything fits resident
}

TEST(EnergyTest, EnergyMethodologyMeetsBudget) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const double all_fine =
      estimate_energy(app.cdfg, app.profile, p, {}).total_pj();
  const PartitionReport report =
      run_energy(app, p, /*budget_pj=*/all_fine * 0.6);
  EXPECT_TRUE(report.met);
  EXPECT_FALSE(report.moved.empty());
  EXPECT_LE(report.energy.total_pj(), all_fine * 0.6);
  EXPECT_GT(report.energy_reduction_percent(), 0.0);
}

TEST(EnergyTest, TrivialBudgetNeedsNoMoves) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const PartitionReport report = run_energy(app, p, /*budget_pj=*/1e18);
  EXPECT_TRUE(report.met);
  EXPECT_TRUE(report.moved.empty());
}

TEST(EnergyTest, ImpossibleBudgetReportsBestEffort) {
  const PaperApp app = build_jpeg_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const PartitionReport report = run_energy(app, p, /*budget_pj=*/1.0);
  EXPECT_FALSE(report.met);
  EXPECT_FALSE(report.moved.empty());
  EXPECT_LT(report.energy.total_pj(), report.initial_energy_pj);
}

// With an unmeetable budget the strategy engine reports the best split
// it saw, a deliberate improvement over the original standalone loop,
// which always reported its LAST trial (every eligible kernel moved)
// even when an earlier prefix was strictly better. The golden in
// energy_determinism_test pins byte-identity on met budgets, where the
// two behaviours coincide.
TEST(EnergyStrategyTest, UnmetBudgetNeverWorseThanOldAlwaysCommitLoop) {
  const PaperApp app = build_jpeg_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const PartitionReport report = run_energy(app, p, /*budget_pj=*/1.0);
  ASSERT_FALSE(report.met);

  // The old loop's result: every CGC-eligible kernel committed.
  std::vector<ir::BlockId> all_eligible;
  for (const auto& kernel :
       analysis::extract_kernels(app.cdfg, app.profile)) {
    if (kernel.cgc_eligible) all_eligible.push_back(kernel.block);
  }
  const double old_energy =
      estimate_energy(app.cdfg, app.profile, p, all_eligible).total_pj();
  EXPECT_LE(report.energy.total_pj(), old_energy);
  // JPEG's energy-vs-prefix curve is non-monotone, so "best seen" is
  // strictly better here — the improvement is real, not vacuous.
  EXPECT_LT(report.energy.total_pj(), old_energy);
}

TEST(EnergyStrategyTest, AllStrategiesServeTheEnergyObjective) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const double all_fine =
      estimate_energy(app.cdfg, app.profile, p, {}).total_pj();
  for (const StrategyKind kind :
       {StrategyKind::kGreedyPaper, StrategyKind::kExhaustive,
        StrategyKind::kAnnealing}) {
    MethodologyOptions options;
    options.strategy = kind;
    options.exhaustive_max_kernels = 12;
    const PartitionReport report =
        run_energy(app, p, all_fine * 0.006, options);
    EXPECT_TRUE(report.met) << strategy_name(kind);
    EXPECT_FALSE(report.moved.empty()) << strategy_name(kind);
    EXPECT_LE(report.energy.total_pj(), all_fine * 0.006)
        << strategy_name(kind);
    // The reported breakdown is exactly the repriced final split.
    const EnergyBreakdown repriced =
        estimate_energy(app.cdfg, app.profile, p, report.moved);
    EXPECT_DOUBLE_EQ(report.energy.total_pj(), repriced.total_pj())
        << strategy_name(kind);
  }
}

TEST(EnergyStrategyTest, ExhaustiveMeetsBudgetWithFewestMoves) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const double all_fine =
      estimate_energy(app.cdfg, app.profile, p, {}).total_pj();
  const double budget = all_fine * 0.006;

  MethodologyOptions greedy;
  const PartitionReport g = run_energy(app, p, budget, greedy);
  MethodologyOptions exhaustive;
  exhaustive.strategy = StrategyKind::kExhaustive;
  exhaustive.exhaustive_max_kernels = 12;
  const PartitionReport e = run_energy(app, p, budget, exhaustive);
  ASSERT_TRUE(g.met);
  ASSERT_TRUE(e.met);
  EXPECT_LE(e.moved.size(), g.moved.size());
}

TEST(EnergyStrategyTest, AnnealingIsDeterministicPerSeed) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const double all_fine =
      estimate_energy(app.cdfg, app.profile, p, {}).total_pj();
  MethodologyOptions options;
  options.strategy = StrategyKind::kAnnealing;
  options.random_seed = 42;
  const PartitionReport a = run_energy(app, p, all_fine * 0.005, options);
  const PartitionReport b = run_energy(app, p, all_fine * 0.005, options);
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_DOUBLE_EQ(a.energy.total_pj(), b.energy.total_pj());
}

TEST(CombinedObjectiveTest, MetRequiresBothConstraints) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, p);
  const double all_fine_pj =
      estimate_energy(mapper, app.profile, {}).total_pj();

  MethodologyOptions options;
  options.cost.objective.kind = ObjectiveKind::kCombined;
  options.cost.energy_budget_pj = all_fine_pj * 0.006;
  const PartitionReport ok = run_methodology(
      mapper, app.profile, workloads::kOfdmTimingConstraint, options);
  EXPECT_TRUE(ok.met);
  EXPECT_LE(ok.final_cycles, workloads::kOfdmTimingConstraint);
  EXPECT_LE(ok.energy.total_pj(), options.cost.energy_budget_pj);

  // An unreachable timing constraint must fail the combined objective
  // even when the energy budget alone would be satisfied.
  const PartitionReport bad =
      run_methodology(mapper, app.profile, /*timing=*/1, options);
  EXPECT_FALSE(bad.met);
}

// Regression: annealing's stop_when_met break must return a split that
// satisfies met(). Under kCombined the minimized scalar (here: pure
// cycles) is not the met() test (here: the energy budget), so the
// lowest-value state seen can violate the budget the stopping state
// meets — the engine must hand back the meeting split. JPEG's
// non-monotone energy-vs-moves curve makes ~half of these seeds stop on
// exactly that divergence.
TEST(CombinedObjectiveTest, AnnealingEarlyStopReturnsAMeetingSplit) {
  const PaperApp app = build_jpeg_model();
  const auto p = platform::make_paper_platform(1500, 2);
  int early_stops = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    MethodologyOptions options;
    options.strategy = StrategyKind::kAnnealing;
    options.cost.objective.kind = ObjectiveKind::kCombined;
    options.cost.objective.cycle_weight = 1.0;
    options.cost.objective.energy_weight = 0.0;
    options.cost.energy_budget_pj = 117.0e6;
    options.random_seed = seed;
    const PartitionReport report = run_methodology(
        app.cdfg, app.profile, p,
        /*timing_constraint=*/1'000'000'000'000LL, options);
    if (report.engine_iterations < options.anneal_iterations) {
      // The walk broke early, which only happens on a met() split.
      ++early_stops;
      EXPECT_TRUE(report.met) << "seed " << seed;
      EXPECT_LE(report.energy.total_pj(), options.cost.energy_budget_pj)
          << "seed " << seed;
    }
  }
  EXPECT_GT(early_stops, 0);  // the invariant was actually exercised
}

TEST(CombinedObjectiveTest, NegativeWeightsAreRejected) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  MethodologyOptions options;
  options.cost.objective.kind = ObjectiveKind::kCombined;
  options.cost.objective.energy_weight = -1.0;
  EXPECT_THROW(run_methodology(app.cdfg, app.profile, p,
                               workloads::kOfdmTimingConstraint, options),
               Error);
}

TEST(ObjectiveRegistryTest, NamesRoundTrip) {
  for (const ObjectiveKind kind : all_objectives()) {
    const auto parsed = parse_objective(objective_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_objective("garbage").has_value());
  EXPECT_FALSE(parse_objective("").has_value());
}

// Every report carries energy columns, whatever the objective — the
// sweep Pareto fronts and the JSON/CSV emitters rely on it.
TEST(ObjectiveRegistryTest, TimingReportsStillCarryEnergy) {
  const PaperApp app = build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const PartitionReport report = run_methodology(
      app.cdfg, app.profile, p, workloads::kOfdmTimingConstraint);
  EXPECT_EQ(report.objective, ObjectiveKind::kTiming);
  EXPECT_GT(report.initial_energy_pj, 0.0);
  const EnergyBreakdown repriced =
      estimate_energy(app.cdfg, app.profile, p, report.moved);
  EXPECT_DOUBLE_EQ(report.energy.total_pj(), repriced.total_pj());
}

}  // namespace
}  // namespace amdrel::core
