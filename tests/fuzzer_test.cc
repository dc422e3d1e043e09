// Differential testing over randomly generated MiniC programs: the
// optimizer must preserve observable behaviour (return value, memory),
// compilation must be deterministic, and the whole analysis pipeline must
// accept whatever the front-end produces.

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "analysis/kernels.h"
#include "core/explorer.h"
#include "core/methodology.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "minic/optimizer.h"
#include "synth/minic_fuzzer.h"
#include "test_helpers.h"

namespace amdrel {
namespace {

class FuzzedProgramProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static std::string source() {
    synth::FuzzConfig config;
    config.seed = GetParam();
    config.statements = 12;
    return synth::generate_minic_program(config);
  }
  static constexpr std::uint64_t kBudget = 20'000'000;
};

TEST_P(FuzzedProgramProperty, CompilesAndTerminates) {
  const ir::TacProgram tac = minic::compile(source(), "fuzz");
  EXPECT_NO_THROW(tac.validate());
  interp::Interpreter interp(tac);
  interp.set_input("in", test::random_samples(16, GetParam()));
  const auto result = interp.run(kBudget);
  EXPECT_GT(result.instructions_executed, 0u);
}

TEST_P(FuzzedProgramProperty, OptimizerPreservesBehaviour) {
  const std::string src = source();
  ir::TacProgram plain = minic::compile(src, "fuzz");
  ir::TacProgram optimized = plain;
  minic::optimize(optimized);

  const auto input = test::random_samples(16, GetParam() * 31 + 7);
  interp::Interpreter a(std::move(plain));
  interp::Interpreter b(std::move(optimized));
  a.set_input("in", input);
  b.set_input("in", input);
  const auto ra = a.run(kBudget);
  const auto rb = b.run(kBudget);
  EXPECT_EQ(ra.return_value, rb.return_value) << src;
  EXPECT_EQ(a.array("out"), b.array("out")) << src;
  EXPECT_EQ(a.array("g"), b.array("g")) << src;
  EXPECT_LE(rb.instructions_executed, ra.instructions_executed);
}

TEST_P(FuzzedProgramProperty, CompilationIsDeterministic) {
  const std::string src = source();
  const ir::TacProgram a = minic::compile(src, "fuzz");
  const ir::TacProgram b = minic::compile(src, "fuzz");
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST_P(FuzzedProgramProperty, AnalysisPipelineAcceptsFuzzedPrograms) {
  const ir::TacProgram tac = minic::compile(source(), "fuzz");
  interp::Interpreter interp(tac);
  interp.set_input("in", test::random_samples(16, GetParam()));
  const auto run = interp.run(kBudget);

  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  const auto kernels = analysis::extract_kernels(cdfg, run.profile);
  for (const auto& kernel : kernels) {
    EXPECT_GE(kernel.loop_depth, 1);
    EXPECT_GT(kernel.exec_freq, 0u);
  }
  // Fuzzed programs contain divisions; the methodology must keep those
  // kernels on the FPGA and still produce a consistent report.
  const auto p = platform::make_paper_platform(800, 2);
  core::HybridMapper mapper(cdfg, p);
  const auto report = core::run_methodology(
      cdfg, run.profile, p, mapper.all_fine_cycles(run.profile) / 2);
  EXPECT_EQ(report.final_cycles,
            report.cost.t_fpga + report.cost.t_coarse + report.cost.t_comm);
  for (const ir::BlockId block : report.moved) {
    EXPECT_FALSE(cdfg.block(block).dfg.has_division());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedProgramProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// The --grid spec parser fronts the CLI, so it must shrug off arbitrary
// garbage: never crash or throw, and only ever accept specs whose parsed
// grid satisfies the documented invariants.
TEST(GridSpecFuzz, ParserRejectsOrSanelyAcceptsGarbage) {
  const std::string charset = "0123456789x,.-+eE 15";
  std::mt19937_64 rng(2026);
  for (int round = 0; round < 5000; ++round) {
    std::string spec;
    const std::size_t length = rng() % 24;
    for (std::size_t i = 0; i < length; ++i) {
      spec += charset[rng() % charset.size()];
    }
    const auto grid = core::parse_platform_grid(spec);
    if (!grid) continue;
    EXPECT_FALSE(grid->areas.empty()) << spec;
    EXPECT_FALSE(grid->cgc_counts.empty()) << spec;
    for (const double area : grid->areas) {
      EXPECT_TRUE(std::isfinite(area) && area > 0) << spec;
    }
    for (const int count : grid->cgc_counts) {
      EXPECT_TRUE(count >= 1 && count <= 1024) << spec;
    }
  }
}

// Valid specs round-trip: re-rendering the parsed grid in the spec
// grammar and parsing again yields the same axes.
TEST(GridSpecFuzz, ValidSpecsRoundTrip) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    core::PlatformGrid grid;
    grid.areas.clear();
    grid.cgc_counts.clear();
    const std::size_t n_areas = 1 + rng() % 4;
    const std::size_t n_counts = 1 + rng() % 4;
    std::string spec;
    for (std::size_t i = 0; i < n_areas; ++i) {
      const int area = 100 + static_cast<int>(rng() % 9000);
      grid.areas.push_back(area);
      if (i) spec += ',';
      spec += std::to_string(area);
    }
    spec += 'x';
    for (std::size_t i = 0; i < n_counts; ++i) {
      const int count = 1 + static_cast<int>(rng() % 8);
      grid.cgc_counts.push_back(count);
      if (i) spec += ',';
      spec += std::to_string(count);
    }
    const auto parsed = core::parse_platform_grid(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(parsed->areas, grid.areas) << spec;
    EXPECT_EQ(parsed->cgc_counts, grid.cgc_counts) << spec;
  }
}

}  // namespace
}  // namespace amdrel
