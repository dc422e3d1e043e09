// The CostModel seam: additive-equivalence (the migration gate — a cost
// model that prices nothing must reproduce the pre-CostModel engine
// exactly), the exact-window repricing of IncrementalSplit's t_reconfig
// under random churn, and small-N brute-force optimality of the
// redesigned branch-and-bound bound under nonzero inter-block
// reconfiguration terms.

#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/energy.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "platform/platform.h"
#include "platform/reconfig_model.h"
#include "synth/cdfg_generator.h"

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

// ----------------------------------------------------- model choice ----

TEST(MakeCostModelTest, ZeroSpecSelectsTheAdditiveModel) {
  const auto p = platform::make_paper_platform(1500, 2);
  core::ObjectiveSpec spec;
  const auto model = core::make_cost_model(spec, p);
  EXPECT_FALSE(model->prices_reconfiguration());
  EXPECT_EQ(model->load_cycles(100), 0);
  EXPECT_EQ(model->floorplan_cost(100), 0.0);
}

TEST(MakeCostModelTest, ReconfigSpecSelectsTheReconfigModel) {
  const auto p = platform::make_paper_platform(1500, 2);
  core::ObjectiveSpec spec;
  spec.reconfig.bitstream_cycles_per_unit = 2.0;
  spec.reconfig.floorplan_cost_per_unit = 0.5;
  const auto model = core::make_cost_model(spec, p);
  EXPECT_TRUE(model->prices_reconfiguration());
  EXPECT_EQ(model->load_cycles(3), 6);
  EXPECT_EQ(model->floorplan_cost(10), 5.0);
  // regions == 0 resolves to the platform's CGC count.
  EXPECT_EQ(model->resident_regions(), p.cgc.count);
}

TEST(MakeCostModelTest, FloorplanOnlySpecPricesNoCycles) {
  const auto p = platform::make_paper_platform(1500, 2);
  core::ObjectiveSpec spec;
  spec.reconfig.floorplan_cost_per_unit = 1.25;
  const auto model = core::make_cost_model(spec, p);
  EXPECT_FALSE(model->prices_reconfiguration());
  EXPECT_EQ(model->floorplan_cost(8), 10.0);
}

TEST(ReconfigCostModelTest, ExplicitRegionsOverrideTheDefault) {
  platform::ReconfigModel rm;
  rm.bitstream_cycles_per_unit = 1.0;
  rm.regions = 3;
  const core::ReconfigCostModel model(rm, 2);
  EXPECT_EQ(model.resident_regions(), 3);
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

  platform::ReconfigModel rm;
  rm.bitstream_cycles_per_unit = 2.0;
  const core::ReconfigCostModel model(rm, p.cgc.count);

  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    if (!mapper.cgc_eligible(b)) continue;
    // One moved module always holds a region: it pays exactly one load
    // regardless of its iteration count.
    const std::int64_t load = model.load_cycles(mapper.node_count(b));
    EXPECT_EQ(model.reconfig_cycles(mapper, app.profile, {b}), load);
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

  platform::ReconfigModel rm;
  rm.bitstream_cycles_per_unit = 3.0;
  rm.regions = 3;
  const core::ReconfigCostModel all_resident(rm, p.cgc.count);
  rm.regions = 1;
  const core::ReconfigCostModel one_region(rm, p.cgc.count);

  // With every moved module resident, each pays exactly one load; with a
  // single region the charge can only grow.
  std::int64_t loads = 0;
  for (const ir::BlockId b : moved) {
    loads += all_resident.load_cycles(mapper.node_count(b));
  }
  EXPECT_EQ(all_resident.reconfig_cycles(mapper, app.profile, moved), loads);
  EXPECT_GE(one_region.reconfig_cycles(mapper, app.profile, moved), loads);
}

// ------------------------------------------- incremental repricing ----

class ReconfigChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

// The exact-window repricing contract: after ANY move/unmove sequence the
// incremental t_reconfig equals the from-scratch CostModel evaluation of
// the current moved set, and the additive terms stay bit-identical to
// HybridMapper::evaluate.
TEST_P(ReconfigChurnProperty, IncrementalMatchesFullRepricing) {
  const auto app = make_app(GetParam());
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  platform::ReconfigModel rm;
  rm.bitstream_cycles_per_unit = 2.5;
  rm.prefetch_overlap = 0.25;
  rm.regions = GetParam() % 2 == 0 ? 0 : 2;  // exercise the default too
  const core::ReconfigCostModel model(rm, p.cgc.count);

  const core::CostObjective objective;
  core::IncrementalSplit split(mapper, app.profile, objective, &model);

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
              model.reconfig_cycles(mapper, app.profile, split.moved()));
    const core::SplitCost full = mapper.evaluate(app.profile, split.moved());
    ASSERT_EQ(split.cost().t_fpga, full.t_fpga);
    ASSERT_EQ(split.cost().t_coarse, full.t_coarse);
    ASSERT_EQ(split.cost().t_comm, full.t_comm);
  }
}

// A model that prices no cycles must leave the split on the additive
// fast path: zero t_reconfig forever, costs identical to a plain split.
TEST_P(ReconfigChurnProperty, ZeroLatencyModelIsInert) {
  const auto app = make_app(GetParam());
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);

  platform::ReconfigModel rm;
  rm.floorplan_cost_per_unit = 4.0;  // enabled, but no cycle pricing
  const core::ReconfigCostModel model(rm, p.cgc.count);

  const core::CostObjective objective;
  core::IncrementalSplit with_model(mapper, app.profile, objective, &model);
  core::IncrementalSplit plain(mapper, app.profile, objective);

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

// The migration gate as a property: a reconfiguration model with zero
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
                        core::CostModel::moved_units(mapper, priced.moved)));
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

  const auto model = core::make_cost_model(options.cost, p);
  ASSERT_TRUE(model->prices_reconfiguration());

  // The engine's candidate set: the first eligible kernels, capped.
  std::vector<ir::BlockId> candidates;
  for (const auto& kernel : report.kernels) {
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
        mapper.evaluate(app.profile, moved).total() +
        model->reconfig_cycles(mapper, app.profile, moved);
    best = std::min(best, total);
  }

  EXPECT_EQ(report.final_cycles, best);
  // The reported split itself reprices to its reported cost.
  EXPECT_EQ(report.cost.t_reconfig,
            model->reconfig_cycles(mapper, app.profile, report.moved));
  EXPECT_EQ(report.final_cycles,
            mapper.evaluate(app.profile, report.moved).total() +
                report.cost.t_reconfig);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveReconfigOptimality,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace amdrel
