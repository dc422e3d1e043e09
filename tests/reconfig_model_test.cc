// Reconfiguration pricing (platform::ReconfigModel): additive
// equivalence (a model that prices no load latency must reproduce the
// paper's additive engine exactly), the exact-window repricing of
// IncrementalSplit's t_reconfig under random churn, and small-N
// brute-force optimality of the branch-and-bound bound under nonzero
// inter-block reconfiguration terms.

#include "platform/reconfig_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "analysis/kernels.h"
#include "core/energy.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "platform/platform.h"
#include "reconfig_oracle.h"
#include "synth/cdfg_generator.h"
#include "test_helpers.h"

namespace amdrel {
namespace {

// --------------------------------------------------- ReconfigModel ----

TEST(ReconfigModelTest, DisabledByDefault) {
  const platform::ReconfigModel model;
  EXPECT_FALSE(model.enabled());
  EXPECT_EQ(model.load_cycles(1000), 0);
}

TEST(ReconfigModelTest, EnabledByEitherPricingKnob) {
  platform::ReconfigModel latency;
  latency.bitstream_cycles_per_unit = 0.5;
  EXPECT_TRUE(latency.enabled());

  platform::ReconfigModel floorplan;
  floorplan.floorplan_cost_per_unit = 2.0;
  EXPECT_TRUE(floorplan.enabled());
}

TEST(ReconfigModelTest, LoadCyclesScaleWithRegionSizeAndRoundUp) {
  platform::ReconfigModel model;
  model.bitstream_cycles_per_unit = 1.5;
  EXPECT_EQ(model.load_cycles(0), 0);
  EXPECT_EQ(model.load_cycles(2), 3);
  EXPECT_EQ(model.load_cycles(3), 5);  // ceil(4.5)
}

TEST(ReconfigModelTest, PrefetchOverlapHidesAFractionOfTheLoad) {
  platform::ReconfigModel model;
  model.bitstream_cycles_per_unit = 4.0;
  model.prefetch_overlap = 0.75;
  EXPECT_EQ(model.load_cycles(10), 10);  // 40 * (1 - 0.75)
  model.prefetch_overlap = 0.9;
  EXPECT_EQ(model.load_cycles(10), 4);   // ceil(4.0)
}

TEST(ReconfigModelTest, ZeroModelPricesNothing) {
  const platform::ReconfigModel model;
  EXPECT_EQ(model.load_cycles(100), 0);
  EXPECT_EQ(model.floorplan_cost(100), 0.0);
  // A disabled model charges +0.0 even for a -0 per-unit charge, so a
  // `--floorplan-cost -0` report prints like the flagless one.
  platform::ReconfigModel negative_zero;
  negative_zero.floorplan_cost_per_unit = -0.0;
  negative_zero.bitstream_cycles_per_unit = -0.0;
  EXPECT_FALSE(negative_zero.enabled());
  EXPECT_EQ(negative_zero.load_cycles(100), 0);
  EXPECT_FALSE(std::signbit(negative_zero.floorplan_cost(100)));
}

TEST(ReconfigModelTest, LatencyAndFloorplanModelPricesBoth) {
  platform::ReconfigModel model;
  model.bitstream_cycles_per_unit = 2.0;
  model.floorplan_cost_per_unit = 0.5;
  EXPECT_EQ(model.load_cycles(3), 6);
  EXPECT_EQ(model.floorplan_cost(10), 5.0);
}

TEST(ReconfigModelTest, FloorplanOnlyModelPricesNoCycles) {
  platform::ReconfigModel model;
  model.floorplan_cost_per_unit = 1.25;
  EXPECT_TRUE(model.enabled());
  EXPECT_EQ(model.load_cycles(100), 0);
  EXPECT_EQ(model.floorplan_cost(8), 10.0);
}

TEST(ReconfigModelTest, ZeroRegionsResolveToTheCgcCount) {
  const auto p = platform::make_paper_platform(1500, 3);
  platform::ReconfigModel model;
  model.bitstream_cycles_per_unit = 1.0;
  EXPECT_EQ(model.resident_regions(p.cgc.count), p.cgc.count);
  // Never fewer than one region, whatever the CGC count.
  EXPECT_EQ(model.resident_regions(0), 1);
}

TEST(ReconfigModelTest, ExplicitRegionsOverrideTheDefault) {
  platform::ReconfigModel model;
  model.bitstream_cycles_per_unit = 1.0;
  model.regions = 3;
  EXPECT_EQ(model.resident_regions(2), 3);
}

// --------------------------------------------- exact charge pricing ----

synth::SyntheticApp make_app(std::uint64_t seed, int segments = 4) {
  synth::CdfgGenConfig config;
  config.segments = segments;
  config.max_loop_depth = 2;
  config.seed = seed;
  config.div_probability = seed % 3 == 0 ? 0.2 : 0.0;
  return synth::generate_app(config);
}

TEST(ReconfigChargeTest, SingleMovedBlockPaysOneLoad) {
  const auto app = make_app(7);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  core::ObjectiveSpec spec;
  spec.reconfig.bitstream_cycles_per_unit = 2.0;
  const platform::ReconfigModel& model = spec.reconfig;
  core::IncrementalSplit split(mapper, app.profile, spec);

  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    if (!mapper.cgc_eligible(b)) continue;
    // One moved module always holds a region: it pays exactly one load
    // regardless of its iteration count.
    const std::int64_t load = model.load_cycles(mapper.node_count(b));
    EXPECT_EQ(core::oracle_reconfig_cycles(model, mapper, app.profile, {b}),
              load);
    split.move(b);
    EXPECT_EQ(split.cost().t_reconfig, load);
    split.unmove(b);
  }
}

TEST(ReconfigChargeTest, ResidencyDiscountsTheTopSavers) {
  const auto app = make_app(5);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  std::vector<ir::BlockId> eligible;
  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    if (mapper.cgc_eligible(b)) eligible.push_back(b);
  }
  ASSERT_GE(eligible.size(), 3u);
  const std::vector<ir::BlockId> moved(eligible.begin(), eligible.begin() + 3);

  platform::ReconfigModel all_resident;
  all_resident.bitstream_cycles_per_unit = 3.0;
  all_resident.regions = 3;
  platform::ReconfigModel one_region = all_resident;
  one_region.regions = 1;

  // With every moved module resident, each pays exactly one load; with a
  // single region the charge can only grow.
  std::int64_t loads = 0;
  for (const ir::BlockId b : moved) {
    loads += all_resident.load_cycles(mapper.node_count(b));
  }
  EXPECT_EQ(
      core::oracle_reconfig_cycles(all_resident, mapper, app.profile, moved),
      loads);
  EXPECT_GE(
      core::oracle_reconfig_cycles(one_region, mapper, app.profile, moved),
      loads);
}

// ------------------------------------------- incremental repricing ----

class ReconfigChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

// The exact-window repricing contract: after ANY move/unmove sequence the
// incremental t_reconfig equals the from-scratch oracle evaluation of
// the current moved set, and the additive terms stay bit-identical to
// test::evaluate.
TEST_P(ReconfigChurnProperty, IncrementalMatchesFullRepricing) {
  const auto app = make_app(GetParam());
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  core::ObjectiveSpec spec;
  spec.reconfig.bitstream_cycles_per_unit = 2.5;
  spec.reconfig.prefetch_overlap = 0.25;
  // Exercise the regions default too.
  spec.reconfig.regions = GetParam() % 2 == 0 ? 0 : 2;
  core::IncrementalSplit split(mapper, app.profile, spec);

  std::vector<ir::BlockId> eligible;
  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    if (mapper.cgc_eligible(b)) eligible.push_back(b);
  }
  ASSERT_FALSE(eligible.empty());

  std::mt19937_64 rng(GetParam() * 977);
  for (int step = 0; step < 200; ++step) {
    const bool do_unmove =
        split.moved_count() > 0 &&
        (split.moved_count() == eligible.size() || rng() % 2 == 0);
    if (do_unmove) {
      split.unmove(split.moved()[rng() % split.moved_count()]);
    } else {
      ir::BlockId block = eligible[rng() % eligible.size()];
      while (split.is_moved(block)) block = eligible[rng() % eligible.size()];
      split.move(block);
    }

    ASSERT_EQ(split.cost().t_reconfig,
              core::oracle_reconfig_cycles(spec.reconfig, mapper, app.profile,
                                           split.moved()));
    const core::SplitCost full =
        test::evaluate(mapper, app.profile, split.moved());
    ASSERT_EQ(split.cost().t_fpga, full.t_fpga);
    ASSERT_EQ(split.cost().t_coarse, full.t_coarse);
    ASSERT_EQ(split.cost().t_comm, full.t_comm);
  }
}

// A spec that prices no cycles must leave the split on the additive
// fast path: zero t_reconfig forever, costs identical to a plain split.
TEST_P(ReconfigChurnProperty, ZeroLatencyModelIsInert) {
  const auto app = make_app(GetParam());
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  core::ObjectiveSpec spec;
  spec.reconfig.floorplan_cost_per_unit = 4.0;  // enabled, no cycle pricing
  core::IncrementalSplit with_model(mapper, app.profile, spec);
  core::IncrementalSplit plain(mapper, app.profile);

  std::mt19937_64 rng(GetParam());
  std::vector<ir::BlockId> eligible;
  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    if (mapper.cgc_eligible(b)) eligible.push_back(b);
  }
  ASSERT_FALSE(eligible.empty());
  for (int step = 0; step < 50; ++step) {
    if (with_model.moved_count() > 0 &&
        (with_model.moved_count() == eligible.size() || rng() % 2 == 0)) {
      const ir::BlockId block =
          with_model.moved()[rng() % with_model.moved_count()];
      with_model.unmove(block);
      plain.unmove(block);
    } else {
      ir::BlockId block = eligible[rng() % eligible.size()];
      while (with_model.is_moved(block)) {
        block = eligible[rng() % eligible.size()];
      }
      with_model.move(block);
      plain.move(block);
    }
    ASSERT_EQ(with_model.cost().t_reconfig, 0);
    ASSERT_EQ(with_model.cost().total(), plain.cost().total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ----------------------------------------- additive equivalence (S4) ----

struct EquivalenceCase {
  core::StrategyKind strategy;
  core::ObjectiveKind objective;
};

class AdditiveEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
};

// The additive identity as a property: a reconfiguration model with zero
// load latency must leave every engine output — cycles, energy, moved
// set, met flag, iteration counts — exactly as the plain additive run
// produced it, across all strategies and objectives. Only the reported
// floorplan charge may differ.
TEST_P(AdditiveEquivalence, ZeroLatencyModelReproducesTheAdditiveRun) {
  const EquivalenceCase param = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto app = make_app(seed, 3);
    const auto p = platform::make_paper_platform(1500, 2);
    core::HybridMapper mapper(app.cdfg, p);
    const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
    const double all_fine_pj =
        core::estimate_energy(mapper, app.profile, {}, core::EnergyModel{})
            .total_pj();

    core::MethodologyOptions options;
    options.strategy = param.strategy;
    options.cost.objective.kind = param.objective;
    options.cost.energy_budget_pj = all_fine_pj / 2;

    core::MethodologyOptions with_model = options;
    with_model.cost.reconfig.floorplan_cost_per_unit = 2.5;

    core::HybridMapper mapper_a(app.cdfg, p);
    core::HybridMapper mapper_b(app.cdfg, p);
    const auto base = core::run_methodology(mapper_a, app.profile,
                                            all_fine / 2, options);
    const auto priced = core::run_methodology(mapper_b, app.profile,
                                              all_fine / 2, with_model);

    EXPECT_EQ(priced.final_cycles, base.final_cycles);
    EXPECT_EQ(priced.initial_cycles, base.initial_cycles);
    EXPECT_EQ(priced.cost.t_fpga, base.cost.t_fpga);
    EXPECT_EQ(priced.cost.t_coarse, base.cost.t_coarse);
    EXPECT_EQ(priced.cost.t_comm, base.cost.t_comm);
    EXPECT_EQ(priced.cost.t_reconfig, 0);
    EXPECT_EQ(base.cost.t_reconfig, 0);
    EXPECT_EQ(priced.moved, base.moved);
    EXPECT_EQ(priced.met, base.met);
    EXPECT_EQ(priced.engine_iterations, base.engine_iterations);
    EXPECT_EQ(priced.energy.total_pj(), base.energy.total_pj());

    // The one permitted difference: the reported floorplan charge.
    EXPECT_EQ(base.floorplan_cost, 0.0);
    EXPECT_EQ(priced.floorplan_cost,
              2.5 * static_cast<double>(
                        core::oracle_moved_units(mapper, priced.moved)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesByObjectives, AdditiveEquivalence,
    ::testing::Values(
        EquivalenceCase{core::StrategyKind::kGreedyPaper,
                        core::ObjectiveKind::kTiming},
        EquivalenceCase{core::StrategyKind::kGreedyPaper,
                        core::ObjectiveKind::kEnergy},
        EquivalenceCase{core::StrategyKind::kGreedyPaper,
                        core::ObjectiveKind::kCombined},
        EquivalenceCase{core::StrategyKind::kExhaustive,
                        core::ObjectiveKind::kTiming},
        EquivalenceCase{core::StrategyKind::kExhaustive,
                        core::ObjectiveKind::kEnergy},
        EquivalenceCase{core::StrategyKind::kExhaustive,
                        core::ObjectiveKind::kCombined},
        EquivalenceCase{core::StrategyKind::kAnnealing,
                        core::ObjectiveKind::kTiming},
        EquivalenceCase{core::StrategyKind::kAnnealing,
                        core::ObjectiveKind::kEnergy},
        EquivalenceCase{core::StrategyKind::kAnnealing,
                        core::ObjectiveKind::kCombined}));

// ------------------------------------- branch-and-bound optimality ----

class ExhaustiveReconfigOptimality
    : public ::testing::TestWithParam<std::uint64_t> {};

// Under nonzero reconfiguration latency the cycle cost is no longer
// per-block additive (the residency discount couples moved blocks), so
// the suffix bound's admissibility carries the whole proof in
// core/strategy.cc. Pin it: on small candidate sets the branch-and-bound
// result must match an exhaustive enumeration of every subset.
TEST_P(ExhaustiveReconfigOptimality, MatchesBruteForceEnumeration) {
  const auto app = make_app(GetParam(), 3);
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  core::MethodologyOptions options;
  options.strategy = core::StrategyKind::kExhaustive;
  options.exhaustive_max_kernels = 10;
  options.cost.reconfig.bitstream_cycles_per_unit = 2.5;
  options.cost.reconfig.prefetch_overlap = 0.3;
  options.cost.reconfig.regions = GetParam() % 2 == 0 ? 0 : 1;

  // An unmeetable constraint turns the search into pure minimization:
  // the result is the best total anywhere in the subset lattice.
  const auto report = core::run_methodology(mapper, app.profile, 1, options);

  const platform::ReconfigModel& model = options.cost.reconfig;
  ASSERT_GT(model.bitstream_cycles_per_unit, 0.0);

  // The engine's candidate set: the first eligible kernels (weight
  // order, as extract_kernels returns them), capped.
  const auto kernels =
      analysis::extract_kernels(app.cdfg, app.profile, options.analysis);
  ASSERT_EQ(kernels.size(), report.kernels_found);
  std::vector<ir::BlockId> candidates;
  for (const auto& kernel : kernels) {
    if (!kernel.cgc_eligible) continue;
    if (candidates.size() >= 10) break;
    candidates.push_back(kernel.block);
  }
  ASSERT_FALSE(candidates.empty());
  ASSERT_LE(candidates.size(), 16u);

  std::int64_t best = mapper.all_fine_cycles(app.profile);
  for (std::uint32_t mask = 1;
       mask < (1u << static_cast<std::uint32_t>(candidates.size())); ++mask) {
    std::vector<ir::BlockId> moved;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (mask & (1u << i)) moved.push_back(candidates[i]);
    }
    const std::int64_t total =
        test::evaluate(mapper, app.profile, moved).total() +
        core::oracle_reconfig_cycles(model, mapper, app.profile, moved);
    best = std::min(best, total);
  }

  EXPECT_EQ(report.final_cycles, best);
  // The reported split itself reprices to its reported cost.
  EXPECT_EQ(report.cost.t_reconfig,
            core::oracle_reconfig_cycles(model, mapper, app.profile,
                                         report.moved));
  EXPECT_EQ(report.final_cycles,
            test::evaluate(mapper, app.profile, report.moved).total() +
                report.cost.t_reconfig);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveReconfigOptimality,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace amdrel
