#include "core/methodology.h"

#include <gtest/gtest.h>

#include "core/hybrid_mapper.h"
#include "exhaustive_oracle.h"
#include "support/error.h"
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

TEST(HybridMapperTest, EquationTwoIdentity) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  HybridMapper mapper(app.cdfg, p);
  const auto moved = std::vector<ir::BlockId>{
      app.block_by_label("BB22"), app.block_by_label("BB12")};
  const SplitCost cost = test::evaluate(mapper, app.profile, moved);
  EXPECT_EQ(cost.total(), cost.t_fpga + cost.t_coarse + cost.t_comm);
  EXPECT_GT(cost.t_coarse, 0);
  EXPECT_GT(cost.t_comm, 0);
}

TEST(HybridMapperTest, EmptySplitIsAllFine) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  HybridMapper mapper(app.cdfg, p);
  const SplitCost cost = test::evaluate(mapper, app.profile, {});
  EXPECT_EQ(cost.t_fpga, mapper.all_fine_cycles(app.profile));
  EXPECT_EQ(cost.t_coarse, 0);
  EXPECT_EQ(cost.t_comm, 0);
}

TEST(HybridMapperTest, MovingABlockRemovesItsFineCost) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  HybridMapper mapper(app.cdfg, p);
  const ir::BlockId hot = app.block_by_label("BB22");
  const SplitCost cost = test::evaluate(mapper, app.profile, {hot});
  const std::int64_t fine_contribution =
      mapper.fine_cycles_per_invocation(hot) *
      static_cast<std::int64_t>(app.profile.count(hot));
  EXPECT_EQ(cost.t_fpga, mapper.all_fine_cycles(app.profile) -
                             fine_contribution);
}

TEST(HybridMapperTest, DoubleMoveRejected) {
  const PaperApp app = build_ofdm_model();
  const auto p = paper_platform();
  HybridMapper mapper(app.cdfg, p);
  const ir::BlockId hot = app.block_by_label("BB22");
  EXPECT_THROW(test::evaluate(mapper, app.profile, {hot, hot}), Error);
}

TEST(MethodologyTest, ExitsAtStepTwoWhenConstraintAlreadyMet) {
  const PaperApp app = build_ofdm_model();
  const auto report = run_methodology(app.cdfg, app.profile,
                                      paper_platform(),
                                      /*constraint=*/1LL << 40);
  EXPECT_TRUE(report.initial_meets);
  EXPECT_TRUE(report.met);
  EXPECT_TRUE(report.moved.empty());
  EXPECT_EQ(report.final_cycles, report.initial_cycles);
}

TEST(MethodologyTest, MovesKernelsInWeightOrder) {
  const PaperApp app = build_ofdm_model();
  const auto report =
      run_methodology(app.cdfg, app.profile, paper_platform(),
                      workloads::kOfdmTimingConstraint);
  ASSERT_GE(report.moved.size(), 2u);
  EXPECT_EQ(app.cdfg.block(report.moved[0]).name, "BB22");
  EXPECT_EQ(app.cdfg.block(report.moved[1]).name, "BB12");
  EXPECT_TRUE(report.met);
  EXPECT_LE(report.final_cycles, workloads::kOfdmTimingConstraint);
}

TEST(MethodologyTest, UnsatisfiableConstraintReportsBestEffort) {
  const PaperApp app = build_ofdm_model();
  const auto report =
      run_methodology(app.cdfg, app.profile, paper_platform(),
                      /*constraint=*/1);
  EXPECT_FALSE(report.met);
  EXPECT_FALSE(report.moved.empty());
  EXPECT_LT(report.final_cycles, report.initial_cycles);
  // Every eligible kernel was tried.
  EXPECT_EQ(report.engine_iterations,
            static_cast<int>(report.kernels_found));
}

TEST(MethodologyTest, ReductionPercentConsistent) {
  const PaperApp app = build_jpeg_model();
  const auto report =
      run_methodology(app.cdfg, app.profile, paper_platform(),
                      workloads::kJpegTimingConstraint);
  const double expected =
      100.0 * (1.0 - static_cast<double>(report.final_cycles) /
                         static_cast<double>(report.initial_cycles));
  EXPECT_DOUBLE_EQ(report.reduction_percent(), expected);
  EXPECT_GT(report.reduction_percent(), 0.0);
}

TEST(MethodologyTest, MoreCgcsNeverSlower) {
  const PaperApp app = build_jpeg_model();
  for (const double area : {1500.0, 5000.0}) {
    const auto two = run_methodology(
        app.cdfg, app.profile, platform::make_paper_platform(area, 2),
        workloads::kJpegTimingConstraint);
    const auto three = run_methodology(
        app.cdfg, app.profile, platform::make_paper_platform(area, 3),
        workloads::kJpegTimingConstraint);
    EXPECT_LE(three.cost.t_coarse, two.cost.t_coarse) << "area " << area;
  }
}

TEST(MethodologyTest, LargerAreaSmallerReduction) {
  // The paper's qualitative claim: as the FPGA area grows, the relative
  // cycle reduction shrinks.
  for (const PaperApp& app : {build_ofdm_model(), build_jpeg_model()}) {
    const std::int64_t constraint = app.cdfg.name() == "ofdm_tx"
                                        ? workloads::kOfdmTimingConstraint
                                        : workloads::kJpegTimingConstraint;
    const auto small = run_methodology(
        app.cdfg, app.profile, platform::make_paper_platform(1500, 2),
        constraint);
    const auto large = run_methodology(
        app.cdfg, app.profile, platform::make_paper_platform(5000, 2),
        constraint);
    EXPECT_GT(small.reduction_percent(), large.reduction_percent())
        << app.cdfg.name();
  }
}

TEST(MethodologyTest, BenefitOrderingNeverWorseThanCodeOrder) {
  const PaperApp app = build_ofdm_model();
  MethodologyOptions benefit;
  benefit.ordering = KernelOrdering::kBenefitDescending;
  benefit.stop_when_met = false;
  MethodologyOptions code;
  code.ordering = KernelOrdering::kCodeOrder;
  code.stop_when_met = false;
  const auto a = run_methodology(app.cdfg, app.profile, paper_platform(),
                                 workloads::kOfdmTimingConstraint, benefit);
  const auto b = run_methodology(app.cdfg, app.profile, paper_platform(),
                                 workloads::kOfdmTimingConstraint, code);
  EXPECT_LE(a.final_cycles, b.final_cycles);
}

TEST(MethodologyTest, RandomOrderingIsDeterministicPerSeed) {
  const PaperApp app = build_ofdm_model();
  MethodologyOptions options;
  options.ordering = KernelOrdering::kRandom;
  options.random_seed = 123;
  const auto a = run_methodology(app.cdfg, app.profile, paper_platform(),
                                 workloads::kOfdmTimingConstraint, options);
  const auto b = run_methodology(app.cdfg, app.profile, paper_platform(),
                                 workloads::kOfdmTimingConstraint, options);
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_EQ(a.final_cycles, b.final_cycles);
}

TEST(BaselinesTest, AllCoarseMovesEveryEligibleBlock) {
  const PaperApp app = build_ofdm_model();
  const auto report = test::all_coarse_split(app.cdfg, app.profile,
                                       paper_platform(),
                                       workloads::kOfdmTimingConstraint);
  // 18 application blocks, all division-free and executed.
  EXPECT_EQ(report.moved.size(), 18u);
  EXPECT_EQ(report.cost.t_fpga, 0);
  EXPECT_GT(report.cost.t_coarse, 0);
}

TEST(BaselinesTest, ExhaustiveOptimalBoundsGreedy) {
  const PaperApp app = build_ofdm_model();
  const auto greedy =
      run_methodology(app.cdfg, app.profile, paper_platform(),
                      workloads::kOfdmTimingConstraint);
  const auto optimal =
      exhaustive_optimal(app.cdfg, app.profile, paper_platform(),
                         workloads::kOfdmTimingConstraint, /*max_kernels=*/12);
  ASSERT_TRUE(optimal.fewest_moves.has_value());
  // Optimal meets the constraint with no more moves than the greedy
  // engine, and its best-cycles subset is at least as fast as greedy's.
  EXPECT_LE(optimal.fewest_moves->size(), greedy.moved.size());
  EXPECT_LE(optimal.best_cycles, greedy.final_cycles);
  EXPECT_GT(optimal.subsets_evaluated, 1000u);
}

}  // namespace
}  // namespace amdrel::core
