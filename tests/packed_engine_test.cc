// Pins the data-oriented engine core to the legacy IR-walking paths:
// HybridMapper's packed per-block tables (op mix, live words, node count,
// CGC eligibility) mirror the Dfgs they were computed from through both
// constructors, the bitset-backed IncrementalSplit stays bit-identical to
// full test::evaluate repricing under random move/unmove churn,
// batched constraint-axis runs reproduce standalone per-cell runs
// field-for-field (including engine_iterations), and MapperState
// snapshots round-trip through the restore constructor.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/energy.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "platform/platform.h"
#include "synth/cdfg_generator.h"
#include "test_helpers.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

synth::SyntheticApp make_app(std::uint64_t seed) {
  synth::CdfgGenConfig config;
  config.segments = 4;
  config.seed = seed;
  // A few divisions so CGC-ineligible blocks exist on every app.
  config.div_probability = 0.15;
  return synth::generate_app(config);
}

// --------------------------------- mapper per-block tables vs Dfg --

class PackedGraphProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PackedGraphProperty, MirrorsEveryPerBlockQuantity) {
  const synth::SyntheticApp app = make_app(GetParam());
  const auto platform = platform::make_paper_platform(1500, 2);
  const HybridMapper cold(app.cdfg, platform);
  const HybridMapper restored(app.cdfg, platform, cold.state());

  for (const HybridMapper* mapper : {&cold, &restored}) {
    for (const ir::BasicBlock& block : app.cdfg.blocks()) {
      const ir::Dfg& dfg = block.dfg;
      const ir::OpMix expect = dfg.op_mix();
      const ir::OpMix& mix = mapper->op_mix(block.id);
      EXPECT_EQ(mix.alu, expect.alu) << block.name;
      EXPECT_EQ(mix.mul, expect.mul) << block.name;
      EXPECT_EQ(mix.div, expect.div) << block.name;
      EXPECT_EQ(mix.mem, expect.mem) << block.name;
      EXPECT_EQ(mix.meta, expect.meta) << block.name;

      EXPECT_EQ(mapper->live_words(block.id),
                dfg.live_in_count() + dfg.live_out_count())
          << block.name;
      EXPECT_EQ(mapper->node_count(block.id), dfg.size()) << block.name;
      EXPECT_EQ(mapper->cgc_eligible(block.id), !dfg.has_division())
          << block.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------- IncrementalSplit vs full repricing --

class SplitChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SplitChurnProperty, MatchesEvaluateAndEstimateEnergyUnderChurn) {
  const synth::SyntheticApp app = make_app(GetParam());
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);

  ObjectiveSpec spec;
  spec.objective.kind = ObjectiveKind::kCombined;
  spec.objective.energy_weight = 1e-6;
  IncrementalSplit split(mapper, app.profile, spec);

  std::vector<ir::BlockId> eligible;
  for (const ir::BasicBlock& block : app.cdfg.blocks()) {
    if (mapper.cgc_eligible(block.id)) eligible.push_back(block.id);
  }
  ASSERT_FALSE(eligible.empty());

  // The all-fine starting point already matches both reprice paths.
  EXPECT_EQ(split.cost().total(), mapper.all_fine_cycles(app.profile));

  std::mt19937_64 rng(GetParam() * 7919 + 1);
  std::uniform_int_distribution<std::size_t> pick(0, eligible.size() - 1);
  for (int step = 0; step < 200; ++step) {
    const ir::BlockId block = eligible[pick(rng)];
    if (split.is_moved(block)) {
      split.unmove(block);
    } else {
      split.move(block);
    }

    const SplitCost full =
        test::evaluate(mapper, app.profile, split.moved());
    EXPECT_EQ(split.cost().t_fpga, full.t_fpga) << "step " << step;
    EXPECT_EQ(split.cost().t_coarse, full.t_coarse) << "step " << step;
    EXPECT_EQ(split.cost().t_comm, full.t_comm) << "step " << step;

    const EnergyBreakdown repriced = estimate_energy(
        mapper, app.profile, split.moved(), spec.objective.energy);
    EXPECT_NEAR(split.energy().total_pj(), repriced.total_pj(),
                1e-6 * (1.0 + repriced.total_pj()))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// --------------------------------- batched axis vs per-cell run() --

void expect_report_eq(const PartitionReport& axis,
                      const PartitionReport& solo, const char* what) {
  EXPECT_EQ(axis.timing_constraint, solo.timing_constraint) << what;
  EXPECT_EQ(axis.energy_budget_pj, solo.energy_budget_pj) << what;
  EXPECT_EQ(axis.initial_cycles, solo.initial_cycles) << what;
  EXPECT_EQ(axis.initial_energy_pj, solo.initial_energy_pj) << what;
  EXPECT_EQ(axis.initial_meets, solo.initial_meets) << what;
  EXPECT_EQ(axis.kernels_found, solo.kernels_found) << what;
  EXPECT_EQ(axis.moved, solo.moved) << what;
  EXPECT_EQ(axis.cost.t_fpga, solo.cost.t_fpga) << what;
  EXPECT_EQ(axis.cost.t_coarse, solo.cost.t_coarse) << what;
  EXPECT_EQ(axis.cost.t_comm, solo.cost.t_comm) << what;
  EXPECT_EQ(axis.final_cycles, solo.final_cycles) << what;
  EXPECT_EQ(axis.cycles_in_cgc, solo.cycles_in_cgc) << what;
  // Both sides reprice energy via the same deterministic
  // estimate_energy walk, so even the doubles are bit-equal.
  EXPECT_EQ(axis.energy.fine_pj, solo.energy.fine_pj) << what;
  EXPECT_EQ(axis.energy.coarse_pj, solo.energy.coarse_pj) << what;
  EXPECT_EQ(axis.energy.reconfig_pj, solo.energy.reconfig_pj) << what;
  EXPECT_EQ(axis.energy.comm_pj, solo.energy.comm_pj) << what;
  EXPECT_EQ(axis.met, solo.met) << what;
  EXPECT_EQ(axis.engine_iterations, solo.engine_iterations) << what;
}

class AxisProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(AxisProperty, BatchedAxisMatchesStandaloneRuns) {
  const auto [seed, strategy_index] = GetParam();
  const synth::SyntheticApp app = make_app(seed);
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);

  MethodologyOptions options;
  options.strategy = all_strategies()[static_cast<std::size_t>(
      strategy_index)];
  options.exhaustive_max_kernels = 10;
  options.anneal_iterations = 600;

  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
  std::vector<AxisCell> cells;
  for (const std::int64_t constraint :
       {all_fine / 8, all_fine / 3, all_fine / 2, (3 * all_fine) / 4,
        all_fine, 2 * all_fine}) {
    cells.push_back({constraint, 0.0});
  }

  const std::vector<PartitionReport> axis =
      run_methodology_axis(mapper, app.profile, cells, options);
  ASSERT_EQ(axis.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    options.cost.energy_budget_pj = cells[c].energy_budget_pj;
    const PartitionReport solo = run_methodology(
        mapper, app.profile, cells[c].timing_constraint, options);
    expect_report_eq(axis[c], solo,
                     strategy_name(options.strategy));
  }
}

TEST_P(AxisProperty, BatchedEnergyBudgetAxisMatchesStandaloneRuns) {
  const auto [seed, strategy_index] = GetParam();
  const synth::SyntheticApp app = make_app(seed);
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);

  MethodologyOptions options;
  options.strategy = all_strategies()[static_cast<std::size_t>(
      strategy_index)];
  options.cost.objective.kind = ObjectiveKind::kEnergy;
  options.exhaustive_max_kernels = 10;
  options.anneal_iterations = 600;

  const double all_fine_pj =
      estimate_energy(mapper, app.profile, {}, options.cost.objective.energy)
          .total_pj();
  std::vector<AxisCell> cells;
  for (const double fraction : {0.1, 0.4, 0.7, 0.9, 1.5}) {
    cells.push_back({0, fraction * all_fine_pj});
  }

  const std::vector<PartitionReport> axis =
      run_methodology_axis(mapper, app.profile, cells, options);
  ASSERT_EQ(axis.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    options.cost.energy_budget_pj = cells[c].energy_budget_pj;
    const PartitionReport solo = run_methodology(
        mapper, app.profile, cells[c].timing_constraint, options);
    expect_report_eq(axis[c], solo,
                     strategy_name(options.strategy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStrategies, AxisProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 7),
                       ::testing::Values(0, 1, 2)));

TEST(AxisTest, NonStoppingWalksAndAblationFlagsBatchIdentically) {
  const workloads::PaperApp app = workloads::build_ofdm_model();
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);
  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
  const std::vector<AxisCell> cells = {
      {all_fine / 4, 0.0}, {all_fine / 2, 0.0}, {all_fine, 0.0}};

  for (const bool stop_when_met : {true, false}) {
    for (const bool skip_unprofitable : {false, true}) {
      MethodologyOptions options;
      options.stop_when_met = stop_when_met;
      options.skip_unprofitable = skip_unprofitable;
      const std::vector<PartitionReport> axis =
          run_methodology_axis(mapper, app.profile, cells, options);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const PartitionReport solo = run_methodology(
            mapper, app.profile, cells[c].timing_constraint, options);
        expect_report_eq(axis[c], solo,
                         stop_when_met ? "stop" : "no-stop");
      }
    }
  }
}

TEST(AxisTest, EmptyAxisReturnsNoReports) {
  const workloads::PaperApp app = workloads::build_ofdm_model();
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);
  EXPECT_TRUE(run_methodology_axis(mapper, app.profile, {}, {}).empty());
}

// -------------------------------------- MapperState round-tripping --

TEST(MapperStateTest, SnapshotRestoreRoundTripsDenseCoarseSlots) {
  const workloads::PaperApp app = workloads::build_ofdm_model();
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper mapper(app.cdfg, platform);

  // Schedule some (not all) eligible blocks so the snapshot carries a
  // mix of engaged and empty coarse slots.
  std::vector<ir::BlockId> moved;
  for (const ir::BasicBlock& block : app.cdfg.blocks()) {
    if (mapper.cgc_eligible(block.id) && moved.size() < 3) {
      moved.push_back(block.id);
      mapper.coarse(block.id);
    }
  }
  ASSERT_FALSE(moved.empty());

  const MapperState state = mapper.state();
  ASSERT_EQ(state.fine.size(), static_cast<std::size_t>(app.cdfg.size()));
  ASSERT_EQ(state.coarse.size(),
            static_cast<std::size_t>(app.cdfg.size()));
  for (const ir::BlockId block : moved) {
    EXPECT_TRUE(state.coarse[static_cast<std::size_t>(block)].has_value());
  }

  HybridMapper restored(app.cdfg, platform, state);
  EXPECT_EQ(restored.all_fine_cycles(app.profile),
            mapper.all_fine_cycles(app.profile));
  const SplitCost a = test::evaluate(mapper, app.profile, moved);
  const SplitCost b = test::evaluate(restored, app.profile, moved);
  EXPECT_EQ(a.t_fpga, b.t_fpga);
  EXPECT_EQ(a.t_coarse, b.t_coarse);
  EXPECT_EQ(a.t_comm, b.t_comm);

  // Restoring the restored mapper's snapshot is stable: same slots
  // engaged, same pricing.
  const MapperState again = restored.state();
  ASSERT_EQ(again.coarse.size(), state.coarse.size());
  for (std::size_t i = 0; i < state.coarse.size(); ++i) {
    EXPECT_EQ(again.coarse[i].has_value(), state.coarse[i].has_value())
        << "block " << i;
  }
}

}  // namespace
}  // namespace amdrel::core
