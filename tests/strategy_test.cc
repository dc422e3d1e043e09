#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anneal_oracle.h"
#include "core/energy.h"
#include "exhaustive_oracle.h"
#include "synth/cdfg_generator.h"
#include "test_helpers.h"
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

// ------------------------------------------------- annealing oracle ----

// The candidate order each KernelOrdering gives run_strategy, as
// run_methodology_axis builds it.
std::vector<analysis::KernelInfo> ordered_kernels(
    const synth::SyntheticApp& app, HybridMapper& mapper,
    KernelOrdering ordering, std::uint64_t seed) {
  std::vector<analysis::KernelInfo> kernels =
      analysis::extract_kernels(app.cdfg, app.profile, {});
  switch (ordering) {
    case KernelOrdering::kWeightDescending:
      break;
    case KernelOrdering::kCodeOrder:
      std::sort(kernels.begin(), kernels.end(),
                [](const auto& a, const auto& b) { return a.block < b.block; });
      break;
    case KernelOrdering::kRandom: {
      std::mt19937_64 rng(seed);
      std::shuffle(kernels.begin(), kernels.end(), rng);
      break;
    }
    case KernelOrdering::kBenefitDescending:
      std::stable_sort(kernels.begin(), kernels.end(),
                       [&](const auto& a, const auto& b) {
                         return mapper.move_benefit_cycles(a.block,
                                                           a.exec_freq) >
                                mapper.move_benefit_cycles(b.block,
                                                           b.exec_freq);
                       });
      break;
  }
  return kernels;
}

synth::SyntheticApp anneal_app(std::uint64_t seed) {
  synth::CdfgGenConfig config;
  config.segments = 5;
  config.max_loop_depth = 2;
  config.div_probability = 0.15;
  config.seed = seed;
  return synth::generate_app(config);
}

// Runs annealing and the oracle on fresh mappers of one (app, platform)
// and requires every StrategyResult field, and the set of CGC-scheduled
// blocks, to be equal.
void expect_walk_matches_oracle(const synth::SyntheticApp& app,
                                const platform::Platform& p,
                                const MethodologyOptions& options,
                                const std::string& label) {
  HybridMapper mapper(app.cdfg, p);
  HybridMapper oracle_mapper(app.cdfg, p);
  const std::vector<analysis::KernelInfo> kernels = ordered_kernels(
      app, mapper, options.ordering, options.random_seed);
  const std::vector<analysis::KernelInfo> oracle_kernels = ordered_kernels(
      app, oracle_mapper, options.ordering, options.random_seed);
  const std::int64_t cycles = mapper.all_fine_cycles(app.profile);
  const double energy = estimate_energy(mapper, app.profile, {},
                                        options.cost.objective.energy)
                            .total_pj();
  std::vector<AxisCell> cells;
  for (const double f : {0.95, 0.7, 0.5, 0.35, 0.2, 0.01}) {
    cells.push_back({static_cast<std::int64_t>(f * static_cast<double>(cycles)),
                     f * energy});
  }
  const std::vector<StrategyResult> got = run_strategy(
      StrategyKind::kAnnealing, {mapper, app.profile, options, kernels, cells});
  const std::vector<StrategyResult> want = oracle_annealing(
      {oracle_mapper, app.profile, options, oracle_kernels, cells});
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t c = 0; c < got.size(); ++c) {
    const StrategyResult& g = got[c];
    const StrategyResult& w = want[c];
    EXPECT_TRUE(g.moved == w.moved && g.cost.t_fpga == w.cost.t_fpga &&
                g.cost.t_coarse == w.cost.t_coarse &&
                g.cost.t_comm == w.cost.t_comm &&
                g.cost.t_reconfig == w.cost.t_reconfig &&
                g.engine_iterations == w.engine_iterations &&
                g.uphill_proposed == w.uphill_proposed &&
                g.uphill_accepted == w.uphill_accepted)
        << label << " cell " << c << ": iterations " << g.engine_iterations
        << " vs " << w.engine_iterations << ", total " << g.cost.total()
        << " vs " << w.cost.total() << ", uphill " << g.uphill_accepted << "/"
        << g.uphill_proposed << " vs " << w.uphill_accepted << "/"
        << w.uphill_proposed;
  }
  // The walks must resolve coarse prices lazily, at a block's first
  // proposal.
  EXPECT_EQ(test::scheduled_blocks(mapper),
            test::scheduled_blocks(oracle_mapper))
      << label;
}

MethodologyOptions anneal_options(ObjectiveKind objective, bool reconfig,
                                  bool stop_when_met, KernelOrdering ordering,
                                  int budget, std::uint64_t seed) {
  MethodologyOptions options;
  options.strategy = StrategyKind::kAnnealing;
  options.cost.objective.kind = objective;
  if (reconfig) {
    options.cost.reconfig.bitstream_cycles_per_unit = 3;
    options.cost.reconfig.prefetch_overlap = 0.5;
  }
  options.stop_when_met = stop_when_met;
  options.ordering = ordering;
  options.anneal_iterations = budget;
  options.random_seed = seed;
  return options;
}

// Budgets: one step, a few, the default, and one that runs past the
// per-thread draw tape (16 Ki words, about 1.7 words per step).
const int kOracleBudgets[] = {1, 7, 4000, 20000};

class AnnealOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnnealOracleProperty, EveryResultFieldMatchesTheOracle) {
  const std::uint64_t seed = GetParam();
  const synth::SyntheticApp app = anneal_app(seed);
  const auto p = platform::make_paper_platform(seed % 2 ? 1500 : 5000,
                                               static_cast<int>(seed % 4) + 1);
  for (const ObjectiveKind objective : all_objectives()) {
    for (const bool reconfig : {false, true}) {
      for (const bool stop : {true, false}) {
        for (const KernelOrdering ordering : all_kernel_orderings()) {
          for (const int budget : kOracleBudgets) {
            const std::string label =
                std::string(objective_name(objective)) +
                (reconfig ? "+reconfig" : "") + (stop ? " stop " : " full ") +
                kernel_ordering_name(ordering) + " budget " +
                std::to_string(budget);
            expect_walk_matches_oracle(
                app, p,
                anneal_options(objective, reconfig, stop, ordering, budget,
                               seed),
                label);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealOracleProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// The draw tape is per thread and keyed by seed: alternating seeds on one
// thread re-records it, past the cap included, and every walk still
// replays its own seed's stream.
TEST(AnnealOracleTest, InterleavedSeedsOnOneThread) {
  const synth::SyntheticApp app = anneal_app(11);
  const auto p = platform::make_paper_platform(1500, 2);
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t seed : {1u, 7u}) {
      for (const int budget : {4000, 20000}) {
        expect_walk_matches_oracle(
            app, p,
            anneal_options(ObjectiveKind::kTiming, false, false,
                           KernelOrdering::kWeightDescending, budget, seed),
            "seed " + std::to_string(seed) + " budget " +
                std::to_string(budget));
      }
    }
  }
}

// Four threads walking at once, each with its own seeds: the
// thread_local tapes must not be shared (the ThreadSanitizer leg runs
// this too).
TEST(AnnealOracleTest, ConcurrentWalksOnFourThreads) {
  const synth::SyntheticApp app = anneal_app(12);
  const auto p = platform::make_paper_platform(5000, 3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&app, &p, t] {
      for (const std::uint64_t seed : {1u, 2u + static_cast<unsigned>(t)}) {
        for (const ObjectiveKind objective : all_objectives()) {
          expect_walk_matches_oracle(
              app, p,
              anneal_options(objective, t % 2 == 1, true,
                             KernelOrdering::kBenefitDescending,
                             t == 0 ? 20000 : 4000, seed),
              "thread " + std::to_string(t) + " seed " +
                  std::to_string(seed) + " " + objective_name(objective));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// ------------------------------------------- annealing shortcut facts ----

// A URBG with mt19937_64's range that always returns one word.
struct FixedWord {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type word;
  result_type operator()() const { return word; }
};

// The walk skips std::exp below exponent -50 because exp(-50) is below
// the smallest nonzero canonical draw. If a library change broke that,
// this fails instead of the walks changing silently.
TEST(AnnealingShortcutTest, SmallestNonzeroDrawExceedsExpOfCutoff) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  FixedWord smallest{FixedWord::min() + 1};
  const double tiny = uniform(smallest);
  EXPECT_EQ(tiny, std::ldexp(1.0, -64));
  EXPECT_LT(std::exp(-50.0), tiny);
  FixedWord zero{FixedWord::min()};
  EXPECT_EQ(uniform(zero), 0.0);
}

// The walk skips its per-cell met() scan when the split fails the
// loosest unresolved limits, which is exact only if met() is monotone
// in both limits.
TEST(AnnealingShortcutTest, MetIsMonotoneInBothLimits) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::int64_t> cycles(-5, 200);
  std::uniform_real_distribution<double> energy(-5.0, 200.0);
  const double inf = std::numeric_limits<double>::infinity();
  for (const ObjectiveKind kind : all_objectives()) {
    CostObjective objective;
    objective.kind = kind;
    for (int trial = 0; trial < 20000; ++trial) {
      const std::int64_t c = cycles(rng);
      const double e = trial % 97 == 0 ? inf : energy(rng);
      const std::int64_t t = cycles(rng);
      const std::int64_t looser_t = t + cycles(rng) % 50 + 5;
      const double b = trial % 89 == 0 ? -0.0 : energy(rng);
      const double looser_b = trial % 83 == 0 ? inf : b + energy(rng) + 5.0;
      if (!objective.met(c, e, t, b)) continue;
      EXPECT_TRUE(objective.met(c, e, looser_t, b)) << objective_name(kind);
      EXPECT_TRUE(objective.met(c, e, t, looser_b)) << objective_name(kind);
      EXPECT_TRUE(objective.met(c, e, looser_t, looser_b))
          << objective_name(kind);
    }
  }
}

}  // namespace
}  // namespace amdrel::core
