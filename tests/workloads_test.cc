#include "workloads/golden.h"
#include "workloads/minic_sources.h"

#include <gtest/gtest.h>

#include "analysis/kernels.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "test_helpers.h"

namespace amdrel::workloads {
namespace {

TEST(OfdmWorkloadTest, InterpreterMatchesGoldenReference) {
  const int symbols = 6;  // the paper's profiling input
  const auto bits = random_bits(symbols * 96, 42);

  const ir::TacProgram tac = minic::compile(ofdm_source(symbols), "ofdm");
  interp::Interpreter interp(tac);
  interp.set_input("bits", bits);
  const auto result = interp.run();

  const OfdmGolden golden = golden_ofdm(bits, symbols);
  EXPECT_EQ(result.return_value, golden.checksum);
  EXPECT_EQ(interp.array("out_re"), golden.out_re);
  EXPECT_EQ(interp.array("out_im"), golden.out_im);
}

TEST(OfdmWorkloadTest, OutputIsNonTrivial) {
  const auto bits = random_bits(96, 7);
  const OfdmGolden golden = golden_ofdm(bits, 1);
  int nonzero = 0;
  for (const auto v : golden.out_re) nonzero += v != 0;
  EXPECT_GT(nonzero, 40);  // a real IFFT output, not zeros
  // Cyclic prefix: first 16 samples repeat the last 16 of the symbol.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(golden.out_re[i], golden.out_re[16 + 48 + i]);
    EXPECT_EQ(golden.out_im[i], golden.out_im[16 + 48 + i]);
  }
}

TEST(JpegWorkloadTest, InterpreterMatchesGoldenReference) {
  const int w = 32, h = 32;
  const auto image = random_pixels(static_cast<std::size_t>(w) * h, 99);

  const ir::TacProgram tac = minic::compile(jpeg_source(w, h), "jpeg");
  interp::Interpreter interp(tac);
  interp.set_input("image", image);
  const auto result = interp.run();

  const JpegGolden golden = golden_jpeg(image, w, h);
  EXPECT_EQ(result.return_value, golden.bit_cost);
  EXPECT_EQ(interp.array("coeffs"), golden.coeffs);
  EXPECT_GT(golden.bit_cost, 0);
}

TEST(JpegWorkloadTest, FlatImageCompressesToNearNothing) {
  // A constant image has only DC energy; every AC coefficient must
  // quantize to zero and the bit cost stays tiny.
  const int w = 16, h = 16;
  std::vector<std::int32_t> flat(static_cast<std::size_t>(w) * h, 128);
  const JpegGolden golden = golden_jpeg(flat, w, h);
  for (std::size_t i = 0; i < golden.coeffs.size(); ++i) {
    EXPECT_EQ(golden.coeffs[i], 0) << "coefficient " << i;
  }
  EXPECT_LE(golden.bit_cost, 4 * 7);  // DC size 0 + EOB per block
}

TEST(FirWorkloadTest, InterpreterMatchesGoldenReference) {
  const int n = 128;
  const auto samples = test::random_samples(n + 16, 5);

  const ir::TacProgram tac = minic::compile(fir_source(n), "fir");
  interp::Interpreter interp(tac);
  interp.set_input("samples", samples);
  const auto result = interp.run();

  const test::FirGolden golden = test::golden_fir(samples, n);
  EXPECT_EQ(result.return_value, golden.checksum);
  EXPECT_EQ(interp.array("filtered"), golden.filtered);
}

TEST(SobelWorkloadTest, InterpreterMatchesGoldenReference) {
  const int w = 24, h = 20;
  const auto image = workloads::random_pixels(static_cast<std::size_t>(w) * h, 55);
  const ir::TacProgram tac = minic::compile(sobel_source(w, h), "sobel");
  interp::Interpreter interp(tac);
  interp.set_input("image", image);
  const auto result = interp.run();
  const test::SobelGolden golden = test::golden_sobel(image, w, h);
  EXPECT_EQ(result.return_value, golden.checksum);
  EXPECT_EQ(interp.array("edges"), golden.edges);
}

TEST(SobelWorkloadTest, FlatImageHasNoEdges) {
  std::vector<std::int32_t> flat(16 * 16, 200);
  const test::SobelGolden golden = test::golden_sobel(flat, 16, 16);
  EXPECT_EQ(golden.checksum, 0);
}

TEST(SobelWorkloadTest, StepEdgeDetected) {
  // Vertical step: left half 0, right half 255 -> strong response on the
  // boundary columns, clamped to 255.
  const int w = 16, h = 8;
  std::vector<std::int32_t> image(static_cast<std::size_t>(w) * h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = w / 2; x < w; ++x) image[y * w + x] = 255;
  }
  const test::SobelGolden golden = test::golden_sobel(image, w, h);
  for (int y = 1; y < h - 1; ++y) {
    EXPECT_EQ(golden.edges[y * w + w / 2 - 1], 255) << "row " << y;
    EXPECT_EQ(golden.edges[y * w + w / 4], 0) << "row " << y;
  }
}

TEST(WorkloadAnalysisTest, OfdmKernelsLiveInLoops) {
  const ir::TacProgram tac = minic::compile(ofdm_source(2), "ofdm");
  interp::Interpreter interp(tac);
  interp.set_input("bits", random_bits(2 * 96, 1));
  const auto run = interp.run();

  ir::Cdfg cdfg = ir::build_cdfg(tac);
  const auto kernels = analysis::extract_kernels(cdfg, run.profile);
  ASSERT_FALSE(kernels.empty());
  // The hottest block must be the IFFT butterfly body (deepest loop,
  // highest frequency): depth >= 3 and executed >= 64*log2(64)/2 times.
  EXPECT_GE(kernels[0].loop_depth, 3);
  EXPECT_GE(kernels[0].exec_freq, 2u * 192u);
  // Equation (1) holds for every kernel.
  for (const auto& kernel : kernels) {
    EXPECT_EQ(kernel.total_weight,
              static_cast<std::int64_t>(kernel.exec_freq) * kernel.op_weight);
  }
}

TEST(WorkloadAnalysisTest, JpegHotBlockIsDctMac) {
  const ir::TacProgram tac = minic::compile(jpeg_source(16, 16), "jpeg");
  interp::Interpreter interp(tac);
  interp.set_input("image", random_pixels(256, 3));
  const auto run = interp.run();

  ir::Cdfg cdfg = ir::build_cdfg(tac);
  const auto kernels = analysis::extract_kernels(cdfg, run.profile);
  ASSERT_FALSE(kernels.empty());
  // Each DCT pass runs its MAC body 4 blocks * 64 outputs * 8 taps = 2048
  // times; the hottest kernel must be one of them and contain a multiply.
  const auto& top = kernels[0];
  EXPECT_GE(top.exec_freq, 2048u);
  EXPECT_GT(cdfg.block(top.block).dfg.op_mix().mul, 0);
}

}  // namespace
}  // namespace amdrel::workloads
