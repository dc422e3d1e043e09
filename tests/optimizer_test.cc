#include "minic/optimizer.h"

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "minic/frontend.h"
#include "test_helpers.h"
#include "workloads/golden.h"
#include "workloads/minic_sources.h"

namespace amdrel::minic {
namespace {

int count_op(const ir::TacProgram& tac, ir::OpKind op) {
  int count = 0;
  for (const auto& block : tac.blocks) {
    for (const auto& instr : block.body) count += instr.op == op;
  }
  return count;
}

int count_body_instrs(const ir::TacProgram& tac) {
  int count = 0;
  for (const auto& block : tac.blocks) {
    count += static_cast<int>(block.body.size());
  }
  return count;
}

TEST(OptimizerTest, FoldsConstantExpressions) {
  ir::TacProgram tac = compile("int main() { return (2 + 3) * 4; }");
  optimize(tac);
  EXPECT_EQ(count_op(tac, ir::OpKind::kAdd), 0);
  EXPECT_EQ(count_op(tac, ir::OpKind::kMul), 0);
  interp::Interpreter interp(tac);
  EXPECT_EQ(interp.run().return_value, 20);
}

TEST(OptimizerTest, AlgebraicIdentities) {
  ir::TacProgram tac = compile(R"(
    int in[1];
    int main() {
      int x = in[0];
      int a = x * 1;
      int b = a + 0;
      int c = b << 0;
      int d = c - c;
      return b + d;
    }
  )");
  optimize(tac);
  EXPECT_EQ(count_op(tac, ir::OpKind::kMul), 0);
  EXPECT_EQ(count_op(tac, ir::OpKind::kShl), 0);
  EXPECT_EQ(count_op(tac, ir::OpKind::kSub), 0);
  interp::Interpreter interp(tac);
  interp.set_input("in", {17});
  EXPECT_EQ(interp.run().return_value, 17);
}

TEST(OptimizerTest, DeadCodeEliminated) {
  ir::TacProgram tac = compile(R"(
    int main() {
      int unused = 3 * 14;
      int used = 5;
      return used;
    }
  )");
  const int before = count_body_instrs(tac);
  optimize(tac);
  EXPECT_LT(count_body_instrs(tac), before);
  interp::Interpreter interp(tac);
  EXPECT_EQ(interp.run().return_value, 5);
}

TEST(OptimizerTest, ConstantBranchBecomesJump) {
  ir::TacProgram tac = compile(R"(
    int main() {
      if (1 < 2) { return 10; }
      return 20;
    }
  )");
  optimize(tac);
  for (const auto& block : tac.blocks) {
    if (block.term.kind == ir::Terminator::Kind::kBr) {
      // No branch on a constant condition may remain in the entry path.
      EXPECT_NE(block.id, tac.entry);
    }
  }
  interp::Interpreter interp(tac);
  EXPECT_EQ(interp.run().return_value, 10);
}

TEST(OptimizerTest, StoresAreNeverRemoved) {
  ir::TacProgram tac = compile(R"(
    int out[1];
    int main() { out[0] = 42; return 0; }
  )");
  optimize(tac);
  EXPECT_EQ(count_op(tac, ir::OpKind::kStore), 1);
  interp::Interpreter interp(tac);
  interp.run();
  EXPECT_EQ(interp.array("out")[0], 42);
}

TEST(OptimizerTest, ReachesFixedPoint) {
  ir::TacProgram tac = compile(R"(
    int main() {
      int a = 1 + 1;
      int b = a + a;
      int c = b * b;
      return c;
    }
  )");
  const int first = optimize(tac);
  EXPECT_GT(first, 0);
  EXPECT_EQ(optimize(tac), 0);  // idempotent once converged
  interp::Interpreter interp(tac);
  EXPECT_EQ(interp.run().return_value, 16);
}

TEST(OptimizerTest, PreservesOfdmSemantics) {
  const int symbols = 2;
  ir::TacProgram tac = compile(workloads::ofdm_source(symbols), "ofdm");
  const int removed = optimize(tac);
  EXPECT_GT(removed, 0);

  const auto bits = workloads::random_bits(symbols * 96, 11);
  interp::Interpreter interp(std::move(tac));
  interp.set_input("bits", bits);
  const auto result = interp.run();
  const auto golden = workloads::golden_ofdm(bits, symbols);
  EXPECT_EQ(result.return_value, golden.checksum);
  EXPECT_EQ(interp.array("out_re"), golden.out_re);
}

TEST(OptimizerTest, PreservesJpegSemantics) {
  ir::TacProgram tac = compile(workloads::jpeg_source(16, 16), "jpeg");
  optimize(tac);
  const auto image = workloads::random_pixels(256, 23);
  interp::Interpreter interp(std::move(tac));
  interp.set_input("image", image);
  const auto result = interp.run();
  EXPECT_EQ(result.return_value, workloads::golden_jpeg(image, 16, 16).bit_cost);
}

TEST(OptimizerTest, OptimizedProgramRunsFewerInstructions) {
  const std::string source = workloads::fir_source(64);
  ir::TacProgram plain = compile(source, "fir");
  ir::TacProgram optimized = compile(source, "fir");
  optimize(optimized);

  const auto samples = test::random_samples(64 + 16, 3);
  interp::Interpreter a(std::move(plain));
  interp::Interpreter b(std::move(optimized));
  a.set_input("samples", samples);
  b.set_input("samples", samples);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.return_value, rb.return_value);
  EXPECT_LT(rb.instructions_executed, ra.instructions_executed);
}

}  // namespace
}  // namespace amdrel::minic
