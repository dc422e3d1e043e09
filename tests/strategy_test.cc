#include "core/strategy.h"

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

using workloads::build_jpeg_model;
using workloads::build_ofdm_model;
using workloads::PaperApp;

platform::Platform paper_platform() {
  return platform::make_paper_platform(1500, 2);
}

MethodologyOptions with_strategy(StrategyKind strategy) {
  MethodologyOptions options;
  options.strategy = strategy;
  return options;
}

TEST(StrategyRegistryTest, NamesRoundTrip) {
  for (const StrategyKind kind : all_strategies()) {
    const auto parsed = parse_strategy(strategy_name(kind));
    ASSERT_TRUE(parsed.has_value()) << strategy_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_strategy("no-such-strategy").has_value());
}

TEST(StrategyRegistryTest, OrderingNamesRoundTrip) {
  for (const KernelOrdering ordering : all_kernel_orderings()) {
    const auto parsed = parse_kernel_ordering(kernel_ordering_name(ordering));
    ASSERT_TRUE(parsed.has_value()) << kernel_ordering_name(ordering);
    EXPECT_EQ(*parsed, ordering);
  }
  EXPECT_FALSE(parse_kernel_ordering("no-such-ordering").has_value());
}

TEST(GreedyPaperStrategyTest, IsTheDefaultDispatch) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  const auto implicit = run_methodology(app.cdfg, app.profile, p,
                                        workloads::kOfdmTimingConstraint);
  const auto explicit_greedy =
      run_methodology(app.cdfg, app.profile, p,
                      workloads::kOfdmTimingConstraint,
                      with_strategy(StrategyKind::kGreedyPaper));
  EXPECT_EQ(implicit.moved, explicit_greedy.moved);
  EXPECT_EQ(implicit.final_cycles, explicit_greedy.final_cycles);
  EXPECT_EQ(implicit.engine_iterations, explicit_greedy.engine_iterations);
}

TEST(ExhaustiveStrategyTest, MatchesExhaustiveOptimalBaseline) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  const auto report =
      run_methodology(app.cdfg, app.profile, p,
                      workloads::kOfdmTimingConstraint,
                      with_strategy(StrategyKind::kExhaustive));
  const auto optimal =
      exhaustive_optimal(app.cdfg, app.profile, p,
                         workloads::kOfdmTimingConstraint, /*max_kernels=*/18);
  ASSERT_TRUE(optimal.fewest_moves.has_value());
  EXPECT_TRUE(report.met);
  EXPECT_EQ(report.moved.size(), optimal.fewest_moves->size());
  EXPECT_EQ(report.final_cycles, optimal.fewest_moves_cycles);
  // Branch-and-bound visits a fraction of the 2^18 subsets the plain
  // enumeration pays for.
  EXPECT_LT(report.engine_iterations,
            static_cast<int>(optimal.subsets_evaluated));
}

TEST(ExhaustiveStrategyTest, NeverWorseThanGreedy) {
  for (const PaperApp& app : {build_ofdm_model(), build_jpeg_model()}) {
    const std::int64_t constraint = app.cdfg.name() == "ofdm_tx"
                                        ? workloads::kOfdmTimingConstraint
                                        : workloads::kJpegTimingConstraint;
    const auto p = paper_platform();
    const auto greedy = run_methodology(app.cdfg, app.profile, p, constraint);
    const auto exhaustive =
        run_methodology(app.cdfg, app.profile, p, constraint,
                        with_strategy(StrategyKind::kExhaustive));
    EXPECT_TRUE(exhaustive.met) << app.cdfg.name();
    EXPECT_LE(exhaustive.moved.size(), greedy.moved.size()) << app.cdfg.name();
  }
}

TEST(ExhaustiveStrategyTest, BestEffortWhenUnsatisfiable) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  const auto report = run_methodology(app.cdfg, app.profile, p,
                                      /*constraint=*/1,
                                      with_strategy(StrategyKind::kExhaustive));
  const auto optimal = exhaustive_optimal(app.cdfg, app.profile, p,
                                          /*constraint=*/1,
                                          /*max_kernels=*/18);
  EXPECT_FALSE(report.met);
  EXPECT_FALSE(optimal.fewest_moves.has_value());
  EXPECT_EQ(report.final_cycles, optimal.best_cycles);
}

TEST(AnnealingStrategyTest, DeterministicPerSeed) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  auto options = with_strategy(StrategyKind::kAnnealing);
  options.random_seed = 99;
  const auto a = run_methodology(app.cdfg, app.profile, p,
                                 workloads::kOfdmTimingConstraint, options);
  const auto b = run_methodology(app.cdfg, app.profile, p,
                                 workloads::kOfdmTimingConstraint, options);
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_EQ(a.final_cycles, b.final_cycles);
  EXPECT_EQ(a.engine_iterations, b.engine_iterations);
}

TEST(AnnealingStrategyTest, MeetsPaperConstraintsAndRespectsOptimum) {
  for (const PaperApp& app : {build_ofdm_model(), build_jpeg_model()}) {
    const std::int64_t constraint = app.cdfg.name() == "ofdm_tx"
                                        ? workloads::kOfdmTimingConstraint
                                        : workloads::kJpegTimingConstraint;
    const auto p = paper_platform();
    const auto report =
        run_methodology(app.cdfg, app.profile, p, constraint,
                        with_strategy(StrategyKind::kAnnealing));
    EXPECT_TRUE(report.met) << app.cdfg.name();
    EXPECT_LE(report.final_cycles, report.initial_cycles);
  }
}

TEST(AnnealingStrategyTest, FullBudgetNeverBeatsExhaustiveOptimum) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  // Unsatisfiable constraint: both searches minimize total cycles, and
  // the branch-and-bound optimum (over all 18 kernels) is the bound.
  auto anneal = with_strategy(StrategyKind::kAnnealing);
  anneal.stop_when_met = false;
  const auto sa =
      run_methodology(app.cdfg, app.profile, p, /*constraint=*/1, anneal);
  const auto optimal = run_methodology(app.cdfg, app.profile, p,
                                       /*constraint=*/1,
                                       with_strategy(StrategyKind::kExhaustive));
  EXPECT_GE(sa.final_cycles, optimal.final_cycles);
  EXPECT_LT(sa.final_cycles, sa.initial_cycles);
}

// Runs the annealing strategy directly — run_methodology's report drops
// the uphill acceptance counters — with stop_when_met disabled so every
// walk spends the full iteration budget.
StrategyResult anneal_probe(const PaperApp& app,
                            const platform::Platform& p,
                            ObjectiveKind objective) {
  HybridMapper mapper(app.cdfg, p);
  MethodologyOptions options;
  options.strategy = StrategyKind::kAnnealing;
  options.cost.objective.kind = objective;
  options.stop_when_met = false;
  const auto kernels =
      analysis::extract_kernels(app.cdfg, app.profile, options.analysis);
  const std::vector<AxisCell> cells = {
      {workloads::kOfdmTimingConstraint, options.cost.energy_budget_pj}};
  return run_strategy(StrategyKind::kAnnealing,
                      {mapper, app.profile, options, kernels, cells})[0];
}

// Regression test for the energy-space temperature bug: the 5% starting
// temperature used to be computed on the raw objective scalar, so a
// pJ-scale walk started orders of magnitude hotter (relative to its own
// deltas) than a cycle-scale walk on the same app and accepted uphill
// moves near-blindly for most of the budget. With the schedule
// normalized by the initial objective value, the Metropolis acceptance
// rate must land in the same band regardless of the objective's unit.
TEST(AnnealingStrategyTest, AcceptanceRateIsObjectiveScaleFree) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();

  const StrategyResult timing = anneal_probe(app, p, ObjectiveKind::kTiming);
  const StrategyResult energy = anneal_probe(app, p, ObjectiveKind::kEnergy);
  ASSERT_GT(timing.uphill_proposed, 0);
  ASSERT_GT(energy.uphill_proposed, 0);

  const double timing_rate = static_cast<double>(timing.uphill_accepted) /
                             timing.uphill_proposed;
  const double energy_rate = static_cast<double>(energy.uphill_accepted) /
                             energy.uphill_proposed;
  // A blindly-hot walk accepts nearly every uphill proposal; a healthy
  // geometric schedule rejects most of them over the full budget.
  EXPECT_LT(energy_rate, 0.5);
  // And the two spaces cool comparably: same acceptance band.
  EXPECT_NEAR(energy_rate, timing_rate, 0.25);
}

TEST(StrategyTest, MapperReuseAcrossStrategiesIsConsistent) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  HybridMapper shared(app.cdfg, p);
  for (const StrategyKind kind : all_strategies()) {
    const auto reused = run_methodology(shared, app.profile,
                                        workloads::kOfdmTimingConstraint,
                                        with_strategy(kind));
    const auto fresh = run_methodology(app.cdfg, app.profile, p,
                                       workloads::kOfdmTimingConstraint,
                                       with_strategy(kind));
    EXPECT_EQ(reused.moved, fresh.moved) << strategy_name(kind);
    EXPECT_EQ(reused.final_cycles, fresh.final_cycles) << strategy_name(kind);
  }
}

}  // namespace
}  // namespace amdrel::core
