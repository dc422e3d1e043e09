#include "platform/platform.h"

#include <gtest/gtest.h>

#include "coarsegrain/cgc_scheduler.h"
#include "core/hybrid_mapper.h"
#include "support/error.h"
#include "test_helpers.h"
#include "workloads/paper_models.h"

namespace amdrel::platform {
namespace {

TEST(FpgaModelTest, FromDeviceAreaAppliesRoutabilityFraction) {
  const FpgaModel model = test::from_device_area(10000.0);
  EXPECT_DOUBLE_EQ(model.usable_area, 7000.0);  // the paper's 70% guidance
  const FpgaModel custom = test::from_device_area(10000.0, 0.5);
  EXPECT_DOUBLE_EQ(custom.usable_area, 5000.0);
}

TEST(FpgaModelTest, AreaAndDelayFollowOpClass) {
  const FpgaModel model;
  EXPECT_DOUBLE_EQ(model.area(ir::OpKind::kAdd), model.area_alu);
  EXPECT_DOUBLE_EQ(model.area(ir::OpKind::kCmpLt), model.area_alu);
  EXPECT_DOUBLE_EQ(model.area(ir::OpKind::kMul), model.area_mul);
  EXPECT_DOUBLE_EQ(model.area(ir::OpKind::kLoad), model.area_mem);
  EXPECT_DOUBLE_EQ(model.area(ir::OpKind::kConst), 0.0);
  EXPECT_EQ(model.delay_cycles(ir::OpKind::kStore), model.delay_mem);
  EXPECT_EQ(model.delay_cycles(ir::OpKind::kInput), 0);
}

TEST(CgcModelTest, SlotsPerCycle) {
  CgcModel cgc;
  cgc.count = 3;
  cgc.rows = 2;
  cgc.cols = 4;
  EXPECT_EQ(test::slots_per_cycle(cgc), 24);
}

TEST(PlatformTest, CgcToFpgaCyclesRoundsUp) {
  const Platform p = make_paper_platform(1500, 2);
  EXPECT_EQ(p.cgc_to_fpga_cycles(0), 0);
  EXPECT_EQ(p.cgc_to_fpga_cycles(1), 1);
  EXPECT_EQ(p.cgc_to_fpga_cycles(3), 1);
  EXPECT_EQ(p.cgc_to_fpga_cycles(4), 2);
  EXPECT_EQ(p.cgc_to_fpga_cycles(7), 3);
}

TEST(PlatformTest, PaperPresetMatchesPaperGrid) {
  const Platform p = make_paper_platform(5000, 3);
  EXPECT_DOUBLE_EQ(p.fpga.usable_area, 5000.0);
  EXPECT_EQ(p.cgc.count, 3);
  EXPECT_EQ(p.cgc.rows, 2);
  EXPECT_EQ(p.cgc.cols, 2);
  EXPECT_EQ(p.cgc.fpga_clock_ratio, 3);
}

// validate_platform guards every consumer entry point: a Platform with
// cgc.fpga_clock_ratio == 0 used to flow silently into
// cgc_to_fpga_cycles' division. All malformed shapes must fail loudly at
// construction/pricing, never inside the arithmetic.
TEST(PlatformValidationTest, RejectsZeroClockRatio) {
  Platform p = make_paper_platform(1500, 2);
  p.cgc.fpga_clock_ratio = 0;
  EXPECT_THROW(validate_platform(p), Error);
  EXPECT_THROW(platform_cost(p), Error);
}

TEST(PlatformValidationTest, RejectsMalformedShapes) {
  {
    Platform p = make_paper_platform(1500, 2);
    p.cgc.count = 0;
    EXPECT_THROW(platform_cost(p), Error);
  }
  {
    Platform p = make_paper_platform(1500, 2);
    p.cgc.rows = 0;
    EXPECT_THROW(platform_cost(p), Error);
  }
  {
    Platform p = make_paper_platform(1500, 2);
    p.cgc.mem_ports = -1;
    EXPECT_THROW(platform_cost(p), Error);
  }
  {
    Platform p = make_paper_platform(1500, 2);
    p.fpga.usable_area = 0;
    EXPECT_THROW(platform_cost(p), Error);
  }
  {
    Platform p = make_paper_platform(1500, 2);
    p.memory.transfer_cycles_per_word = -1;
    EXPECT_THROW(platform_cost(p), Error);
  }
  EXPECT_THROW(make_paper_platform(-100, 2), Error);
  EXPECT_THROW(make_paper_platform(1500, 0), Error);
}

TEST(PlatformValidationTest, HybridMapperRejectsMalformedPlatforms) {
  const auto app = workloads::build_ofdm_model();
  Platform p = make_paper_platform(1500, 2);
  p.cgc.fpga_clock_ratio = 0;
  EXPECT_THROW(core::HybridMapper(app.cdfg, p), Error);
}

TEST(ChainingAblationTest, DisablingChainingSlowsDependentOps) {
  ir::Dfg dfg;
  const auto a = dfg.add_node(ir::OpKind::kInput, {}, "a");
  const auto m = dfg.add_node(ir::OpKind::kMul, {a, a});
  const auto s = dfg.add_node(ir::OpKind::kAdd, {m, a});
  dfg.add_node(ir::OpKind::kOutput, {s});

  CgcModel with;
  CgcModel without = with;
  without.enable_chaining = false;
  EXPECT_EQ(coarsegrain::schedule_dfg_on_cgc(dfg, with).total_cgc_cycles, 1);
  EXPECT_EQ(coarsegrain::schedule_dfg_on_cgc(dfg, without).total_cgc_cycles,
            2);
}

}  // namespace
}  // namespace amdrel::platform
