// Property-based suites: invariants checked over seeded random inputs
// via parameterized gtest. Each suite sweeps generator seeds (and some
// sweep platform shapes), exercising the library far beyond the
// hand-written unit cases.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "coarsegrain/cgc_scheduler.h"
#include "core/energy.h"
#include "core/methodology.h"
#include "core/pipeline.h"
#include "core/strategy.h"
#include "finegrain/fpga_mapper.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "minic/optimizer.h"
#include "synth/cdfg_generator.h"
#include "synth/dfg_generator.h"
#include "test_helpers.h"
#include "workloads/golden.h"
#include "workloads/minic_sources.h"

namespace amdrel {
namespace {

// ---------------------------------------------------------------- DFGs --

class DfgGeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DfgGeneratorProperty, ExactOpMixAndValidity) {
  synth::DfgGenConfig config;
  config.alu_ops = 25;
  config.mul_ops = 7;
  config.load_ops = 5;
  config.store_ops = 3;
  config.live_ins = 4;
  config.live_outs = 2;
  config.seed = GetParam();
  const ir::Dfg dfg = synth::generate_dfg(config);
  dfg.validate();
  const ir::OpMix mix = dfg.op_mix();
  EXPECT_EQ(mix.alu, 25);
  EXPECT_EQ(mix.mul, 7);
  EXPECT_EQ(mix.mem, 8);
  EXPECT_EQ(dfg.live_in_count(), 4);
  EXPECT_EQ(dfg.live_out_count(), 2);
}

TEST_P(DfgGeneratorProperty, WidthKnobControlsDepth) {
  synth::DfgGenConfig config;
  config.alu_ops = 60;
  config.mul_ops = 0;
  config.load_ops = 0;
  config.store_ops = 0;
  config.seed = GetParam();
  config.target_width = 1;
  const int deep = test::max_asap_level(synth::generate_dfg(config));
  config.target_width = 10;
  const int shallow = test::max_asap_level(synth::generate_dfg(config));
  EXPECT_GT(deep, shallow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfgGeneratorProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// --------------------------------------------------- temporal partition --

class TemporalPartitionProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(TemporalPartitionProperty, Invariants) {
  const auto [seed, area] = GetParam();
  synth::DfgGenConfig config;
  config.alu_ops = 50;
  config.mul_ops = 12;
  config.load_ops = 8;
  config.store_ops = 4;
  config.seed = seed;
  const ir::Dfg dfg = synth::generate_dfg(config);

  platform::FpgaModel fpga;
  fpga.usable_area = area;
  const auto result = finegrain::partition_dfg(dfg, fpga);
  const auto levels = dfg.asap_levels();

  double total_area = 0;
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    const auto& node = dfg.node(id);
    if (ir::is_schedulable(node.kind)) {
      // every schedulable node is assigned a partition
      EXPECT_GE(result.partition_of[id], 1);
      EXPECT_LE(result.partition_of[id], result.num_partitions);
      total_area += fpga.area(node.kind);
    } else {
      EXPECT_EQ(result.partition_of[id], 0);
    }
  }
  // each partition respects the area budget
  for (int p = 1; p <= result.num_partitions; ++p) {
    EXPECT_LE(result.partition_area[p], fpga.usable_area);
  }
  // partition count is at least the area lower bound
  EXPECT_GE(result.num_partitions,
            static_cast<int>(std::ceil(total_area / fpga.usable_area)));
  // level-by-level traversal: partitions never decrease along data edges
  for (ir::NodeId v = 0; v < dfg.size(); ++v) {
    for (ir::NodeId u : dfg.node(v).operands()) {
      if (result.partition_of[u] > 0 && result.partition_of[v] > 0 &&
          levels[u] < levels[v]) {
        EXPECT_LE(result.partition_of[u], result.partition_of[v]);
      }
    }
  }
}

TEST_P(TemporalPartitionProperty, ListPackingInvariantsAndDominance) {
  const auto [seed, area] = GetParam();
  synth::DfgGenConfig config;
  config.alu_ops = 50;
  config.mul_ops = 12;
  config.load_ops = 8;
  config.store_ops = 4;
  config.seed = seed;
  const ir::Dfg dfg = synth::generate_dfg(config);

  platform::FpgaModel fpga;
  fpga.usable_area = area;
  const auto fig3 = finegrain::partition_dfg(dfg, fpga);
  const auto list = finegrain::partition_dfg_list(dfg, fpga);

  // Data dependencies never point into a later partition's past.
  for (ir::NodeId v = 0; v < dfg.size(); ++v) {
    for (ir::NodeId u : dfg.node(v).operands()) {
      if (list.partition_of[u] > 0 && list.partition_of[v] > 0) {
        EXPECT_LE(list.partition_of[u], list.partition_of[v]);
      }
    }
  }
  for (int p = 1; p <= list.num_partitions; ++p) {
    EXPECT_LE(list.partition_area[p], fpga.usable_area);
  }
  // List packing never needs more configurations than Figure 3.
  EXPECT_LE(list.num_partitions, fig3.num_partitions);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAreas, TemporalPartitionProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Values(200, 500, 1500)));

// ------------------------------------------------------- CGC scheduling --

struct CgcCase {
  std::uint64_t seed;
  int count, rows, cols;
};

class CgcScheduleProperty : public ::testing::TestWithParam<CgcCase> {};

TEST_P(CgcScheduleProperty, Invariants) {
  const CgcCase param = GetParam();
  synth::DfgGenConfig config;
  config.alu_ops = 40;
  config.mul_ops = 10;
  config.load_ops = 6;
  config.store_ops = 2;
  config.target_width = 8;
  config.seed = param.seed;
  const ir::Dfg dfg = synth::generate_dfg(config);

  platform::CgcModel cgc;
  cgc.count = param.count;
  cgc.rows = param.rows;
  cgc.cols = param.cols;
  cgc.dma_memory = param.seed % 2 == 0;  // alternate both memory modes
  const auto sched = coarsegrain::schedule_dfg_on_cgc(dfg, cgc);

  std::map<std::pair<std::int64_t, int>, int> per_cgc_cycle;
  for (ir::NodeId id = 0; id < dfg.size(); ++id) {
    const auto& node = dfg.node(id);
    if (!sched.placement[id].bound()) continue;
    const auto& p = sched.placement[id];
    // placements stay inside the array
    EXPECT_GE(p.row, 1);
    EXPECT_LE(p.row, cgc.rows);
    EXPECT_GE(p.col, 1);
    EXPECT_LE(p.col, cgc.cols);
    EXPECT_LT(p.cgc, cgc.count);
    per_cgc_cycle[{sched.start[id], p.cgc}]++;
    // precedence: operands ready, or same-cycle chain in lower row
    for (ir::NodeId u : node.operands()) {
      if (!ir::is_schedulable(dfg.node(u).kind)) continue;
      if (sched.finish[u] > sched.start[id]) {
        EXPECT_EQ(sched.start[u], sched.start[id]);
        ASSERT_TRUE(sched.placement[u].bound());
        EXPECT_EQ(sched.placement[u].cgc, p.cgc);
        EXPECT_LT(sched.placement[u].row, p.row);
      }
    }
  }
  // per-cycle slot capacity
  for (const auto& [key, used] : per_cgc_cycle) {
    EXPECT_LE(used, cgc.rows * cgc.cols);
  }
  // latency lower bound: compute ops / slots
  const ir::OpMix mix = dfg.op_mix();
  const std::int64_t compute = mix.alu + mix.mul;
  EXPECT_GE(sched.total_cgc_cycles,
            (compute + test::slots_per_cycle(cgc) - 1) /
                test::slots_per_cycle(cgc));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CgcScheduleProperty,
    ::testing::Values(CgcCase{1, 1, 1, 1}, CgcCase{2, 1, 2, 2},
                      CgcCase{3, 2, 2, 2}, CgcCase{4, 3, 2, 2},
                      CgcCase{5, 2, 3, 3}, CgcCase{6, 2, 4, 1},
                      CgcCase{7, 4, 1, 4}, CgcCase{8, 2, 2, 2},
                      CgcCase{9, 3, 3, 2}, CgcCase{10, 1, 4, 4}));

// ------------------------------------------------------- methodology ----

class MethodologyProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  synth::SyntheticApp make_app() const {
    synth::CdfgGenConfig config;
    config.segments = 4;
    config.max_loop_depth = 2;
    config.seed = GetParam();
    config.div_probability = GetParam() % 3 == 0 ? 0.2 : 0.0;
    return synth::generate_app(config);
  }
};

TEST_P(MethodologyProperty, CostIdentityAndBounds) {
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);

  const auto report = core::run_methodology(app.cdfg, app.profile, p,
                                            all_fine / 2);
  // equation (2) identity
  EXPECT_EQ(report.final_cycles,
            report.cost.t_fpga + report.cost.t_coarse + report.cost.t_comm);
  // the engine never commits a split worse than all-fine
  EXPECT_LE(report.final_cycles, report.initial_cycles);
  EXPECT_EQ(report.initial_cycles, all_fine);
  // moved blocks are unique and CGC-eligible
  std::set<ir::BlockId> seen;
  for (const ir::BlockId block : report.moved) {
    EXPECT_TRUE(seen.insert(block).second);
    EXPECT_FALSE(app.cdfg.block(block).dfg.has_division());
  }
  // reduction percentage is consistent and within range
  EXPECT_GE(report.reduction_percent(), 0.0);
  EXPECT_LE(report.reduction_percent(), 100.0);
}

TEST_P(MethodologyProperty, EvaluateMatchesReportedCost) {
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const auto report = core::run_methodology(
      app.cdfg, app.profile, p,
      mapper.all_fine_cycles(app.profile) / 2);
  // re-pricing the reported split reproduces the reported cost exactly
  const core::SplitCost cost =
      test::evaluate(mapper, app.profile, report.moved);
  EXPECT_EQ(cost.total(), report.final_cycles);
  EXPECT_EQ(cost.t_fpga, report.cost.t_fpga);
  EXPECT_EQ(cost.t_coarse, report.cost.t_coarse);
  EXPECT_EQ(cost.t_comm, report.cost.t_comm);
}

TEST_P(MethodologyProperty, PipelineBounds) {
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const auto report = core::run_methodology(
      app.cdfg, app.profile, p, mapper.all_fine_cycles(app.profile) / 2);
  for (const int frames : {1, 3, 8}) {
    const auto estimate = core::estimate_pipeline(report, frames);
    EXPECT_LE(estimate.pipelined_cycles, estimate.sequential_cycles);
    const std::int64_t bottleneck =
        std::max(estimate.fine_per_frame, estimate.coarse_per_frame);
    EXPECT_GE(estimate.pipelined_cycles, bottleneck * frames);
    EXPECT_LE(estimate.fine_utilization(), 1.0 + 1e-9);
    EXPECT_LE(estimate.coarse_utilization(), 1.0 + 1e-9);
  }
}

TEST_P(MethodologyProperty, EnergyBreakdownConsistent) {
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  const auto all_fine = core::estimate_energy(app.cdfg, app.profile, p, {});
  EXPECT_GE(all_fine.fine_pj, 0.0);
  EXPECT_EQ(all_fine.coarse_pj, 0.0);
  core::MethodologyOptions options;
  options.cost.objective.kind = core::ObjectiveKind::kEnergy;
  options.cost.energy_budget_pj = all_fine.total_pj() * 0.8;
  const auto report = core::run_methodology(app.cdfg, app.profile, p,
                                            /*timing_constraint=*/0, options);
  // the engine reports exactly the breakdown of its final split
  const auto repriced =
      core::estimate_energy(app.cdfg, app.profile, p, report.moved);
  EXPECT_DOUBLE_EQ(repriced.total_pj(), report.energy.total_pj());
}

TEST_P(MethodologyProperty, IncrementalSplitMatchesEvaluate) {
  // Delta-based costing must equal the from-scratch evaluate() after
  // every move/unmove of a random movement sequence (the engine-loop
  // invariant the strategies rely on).
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  core::IncrementalSplit split(mapper, app.profile);

  std::vector<ir::BlockId> eligible;
  for (const auto& block : app.cdfg.blocks()) {
    if (mapper.cgc_eligible(block.id)) eligible.push_back(block.id);
  }
  ASSERT_FALSE(eligible.empty());

  std::mt19937_64 rng(GetParam() * 7919 + 1);
  std::uniform_int_distribution<std::size_t> pick(0, eligible.size() - 1);
  for (int step = 0; step < 200; ++step) {
    const ir::BlockId block = eligible[pick(rng)];
    if (split.is_moved(block)) {
      split.unmove(block);
    } else {
      split.move(block);
    }
    const core::SplitCost reference =
        test::evaluate(mapper, app.profile, split.moved());
    ASSERT_EQ(split.cost().t_fpga, reference.t_fpga) << "step " << step;
    ASSERT_EQ(split.cost().t_coarse, reference.t_coarse) << "step " << step;
    ASSERT_EQ(split.cost().t_comm, reference.t_comm) << "step " << step;
    ASSERT_EQ(split.moved_count(), split.moved().size());
  }
}

TEST_P(MethodologyProperty, IncrementalEnergyMatchesEstimate) {
  // The O(1) energy deltas must track a from-scratch estimate_energy
  // repricing through every move/unmove of a random movement sequence.
  // Deltas add and subtract per-block doubles in movement order while
  // the repricing sums in block order, so equality is up to float
  // summation order: a tight relative tolerance, not bit equality (the
  // engine's emitted reports always use the repricing).
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  core::ObjectiveSpec spec;
  spec.objective.kind = core::ObjectiveKind::kEnergy;
  core::IncrementalSplit split(mapper, app.profile, spec);

  std::vector<ir::BlockId> eligible;
  for (const auto& block : app.cdfg.blocks()) {
    if (mapper.cgc_eligible(block.id)) eligible.push_back(block.id);
  }
  ASSERT_FALSE(eligible.empty());

  const auto near = [](double actual, double reference) {
    const double scale = std::max({std::fabs(actual), std::fabs(reference),
                                   1.0});
    return std::fabs(actual - reference) <= 1e-9 * scale;
  };
  std::mt19937_64 rng(GetParam() * 104729 + 3);
  std::uniform_int_distribution<std::size_t> pick(0, eligible.size() - 1);
  for (int step = 0; step < 200; ++step) {
    const ir::BlockId block = eligible[pick(rng)];
    if (split.is_moved(block)) {
      split.unmove(block);
    } else {
      split.move(block);
    }
    const core::EnergyBreakdown reference = core::estimate_energy(
        mapper, app.profile, split.moved(), spec.objective.energy);
    ASSERT_TRUE(near(split.energy().fine_pj, reference.fine_pj))
        << "step " << step << ": " << split.energy().fine_pj << " vs "
        << reference.fine_pj;
    ASSERT_TRUE(near(split.energy().coarse_pj, reference.coarse_pj))
        << "step " << step;
    ASSERT_TRUE(near(split.energy().reconfig_pj, reference.reconfig_pj))
        << "step " << step;
    ASSERT_TRUE(near(split.energy().comm_pj, reference.comm_pj))
        << "step " << step;
    ASSERT_TRUE(near(split.energy().total_pj(), reference.total_pj()))
        << "step " << step;
    // The objective scalar is the tracked total, so the strategies see
    // the same numbers the assertions above just checked.
    ASSERT_EQ(split.objective_value(), split.energy().total_pj());
  }
}

TEST_P(MethodologyProperty, StrategiesAgreeOnSplitPricing) {
  // Whatever split a strategy reports, re-pricing it from scratch must
  // reproduce the reported cost — for every registered strategy.
  const auto app = make_app();
  const auto p = platform::make_paper_platform(1500, 2);
  core::HybridMapper mapper(app.cdfg, p);
  const std::int64_t constraint = mapper.all_fine_cycles(app.profile) / 2;
  for (const core::StrategyKind kind : core::all_strategies()) {
    core::MethodologyOptions options;
    options.strategy = kind;
    const auto report =
        core::run_methodology(mapper, app.profile, constraint, options);
    const core::SplitCost cost =
        test::evaluate(mapper, app.profile, report.moved);
    EXPECT_EQ(cost.total(), report.final_cycles)
        << core::strategy_name(kind);
    EXPECT_LE(report.final_cycles, report.initial_cycles)
        << core::strategy_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MethodologyProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ----------------------------------------------- interpreter vs golden --

class GoldenEquivalenceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenEquivalenceProperty, FirMatches) {
  const int n = 48;
  const auto samples = test::random_samples(n + 16, GetParam());
  interp::Interpreter interp(minic::compile(workloads::fir_source(n)));
  interp.set_input("samples", samples);
  const auto result = interp.run();
  const auto golden = test::golden_fir(samples, n);
  EXPECT_EQ(result.return_value, golden.checksum);
  EXPECT_EQ(interp.array("filtered"), golden.filtered);
}

TEST_P(GoldenEquivalenceProperty, OfdmMatchesWithAndWithoutOptimizer) {
  const int symbols = 1;
  const auto bits = workloads::random_bits(symbols * 96, GetParam());
  const auto golden = workloads::golden_ofdm(bits, symbols);

  ir::TacProgram plain =
      minic::compile(workloads::ofdm_source(symbols), "ofdm");
  ir::TacProgram optimized = plain;
  minic::optimize(optimized);

  for (ir::TacProgram* tac : {&plain, &optimized}) {
    interp::Interpreter interp(*tac);
    interp.set_input("bits", bits);
    const auto result = interp.run();
    EXPECT_EQ(result.return_value, golden.checksum);
    EXPECT_EQ(interp.array("out_im"), golden.out_im);
  }
}

TEST_P(GoldenEquivalenceProperty, JpegMatches) {
  const auto image = workloads::random_pixels(16 * 16, GetParam());
  interp::Interpreter interp(minic::compile(workloads::jpeg_source(16, 16)));
  interp.set_input("image", image);
  EXPECT_EQ(interp.run().return_value,
            workloads::golden_jpeg(image, 16, 16).bit_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenEquivalenceProperty,
                         ::testing::Range<std::uint64_t>(100, 110));

// ------------------------------------------------------ CDFG pipeline ---

class SyntheticAppProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SyntheticAppProperty, GeneratedAppsAreWellFormed) {
  synth::CdfgGenConfig config;
  config.segments = 6;
  config.max_loop_depth = 3;
  config.seed = GetParam();
  const auto app = synth::generate_app(config);
  app.cdfg.validate();
  // entry executes once; loop bodies execute more often than their
  // enclosing region
  EXPECT_EQ(app.profile.count(app.cdfg.entry()), 1u);
  for (const auto& block : app.cdfg.blocks()) {
    if (block.loop_depth > 0) {
      EXPECT_GE(app.profile.count(block.id),
                static_cast<std::uint64_t>(config.min_trip))
          << "block " << block.id;
    }
  }
  // loop analysis found at least one loop (segments=6 virtually always
  // emits one) and depths are consistent with the profile
  EXPECT_FALSE(app.cdfg.loops().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticAppProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace amdrel
