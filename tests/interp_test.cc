#include "interp/interpreter.h"

#include <gtest/gtest.h>

#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "support/error.h"
#include "test_helpers.h"

namespace amdrel::interp {
namespace {

RunResult run_source(const std::string& source) {
  const ir::TacProgram tac = minic::compile(source);
  Interpreter interp(tac);
  return interp.run();
}

TEST(InterpreterTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(run_source("int main() { return 2 + 3 * 4 - 6 / 2; }")
                .return_value,
            11);
  EXPECT_EQ(run_source("int main() { return (7 % 3) << 2; }").return_value,
            4);
  EXPECT_EQ(run_source("int main() { return -5 >> 1; }").return_value, -3);
  EXPECT_EQ(run_source("int main() { return ~0 ^ 5; }").return_value, -6);
}

TEST(InterpreterTest, WrapAroundSemantics) {
  EXPECT_EQ(
      run_source("int main() { return 2147483647 + 1; }").return_value,
      INT32_MIN);
  const auto wrapped = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(65535u * 65535u));
  EXPECT_EQ(run_source("int main() { return 65535 * 65535; }").return_value,
            wrapped);
}

TEST(InterpreterTest, ShortCircuitEvaluation) {
  // The right operand of && must not execute when the left is false:
  // division by zero would throw if evaluated.
  EXPECT_EQ(run_source(R"(
    int main() {
      int zero = 0;
      if (zero != 0 && 10 / zero > 1) { return 1; }
      return 2;
    }
  )").return_value,
            2);
  EXPECT_EQ(run_source(R"(
    int main() {
      int zero = 0;
      int ok = 1 || 10 / zero;
      return ok;
    }
  )").return_value,
            1);
}

TEST(InterpreterTest, LoopsAndArrays) {
  const RunResult result = run_source(R"(
    int data[10];
    int main() {
      int sum = 0;
      for (int i = 0; i < 10; i++) { data[i] = i * i; }
      for (int i = 0; i < 10; i++) { sum += data[i]; }
      return sum;
    }
  )");
  EXPECT_EQ(result.return_value, 285);
}

TEST(InterpreterTest, WhileAndDoWhile) {
  EXPECT_EQ(run_source(R"(
    int main() {
      int n = 0;
      while (n < 5) { n++; }
      do { n += 10; } while (n < 20);
      return n;
    }
  )").return_value,
            25);
}

TEST(InterpreterTest, BreakAndContinue) {
  EXPECT_EQ(run_source(R"(
    int main() {
      int sum = 0;
      for (int i = 0; i < 100; i++) {
        if (i == 7) { break; }
        if (i % 2 == 1) { continue; }
        sum += i;
      }
      return sum;  // 0+2+4+6
    }
  )").return_value,
            12);
}

TEST(InterpreterTest, FunctionsAndArrayParams) {
  EXPECT_EQ(run_source(R"(
    int dot(int a[], int b[], int n) {
      int sum = 0;
      for (int i = 0; i < n; i++) { sum += a[i] * b[i]; }
      return sum;
    }
    int x[4];
    int y[4];
    int main() {
      for (int i = 0; i < 4; i++) { x[i] = i + 1; y[i] = 2; }
      return dot(x, y, 4);  // (1+2+3+4)*2
    }
  )").return_value,
            20);
}

TEST(InterpreterTest, ConstTables) {
  EXPECT_EQ(run_source(R"(
    const int lut[5] = {10, 20, 30, 40, 50};
    int main() { return lut[1] + lut[3]; }
  )").return_value,
            60);
}

TEST(InterpreterTest, TwoDimensionalArrays) {
  EXPECT_EQ(run_source(R"(
    int m[3][4];
    int main() {
      for (int r = 0; r < 3; r++) {
        for (int c = 0; c < 4; c++) { m[r][c] = r * 10 + c; }
      }
      return m[2][3];
    }
  )").return_value,
            23);
}

TEST(InterpreterTest, InputOutputApi) {
  const ir::TacProgram tac = minic::compile(R"(
    int in[4];
    int out[4];
    int main() {
      for (int i = 0; i < 4; i++) { out[i] = in[i] * 3; }
      return 0;
    }
  )");
  Interpreter interp(tac);
  interp.set_input("in", {1, 2, 3, 4});
  interp.run();
  EXPECT_EQ(interp.array("out"), (std::vector<std::int32_t>{3, 6, 9, 12}));
  // A second run re-applies inputs and zero-fills the rest.
  interp.run();
  EXPECT_EQ(interp.array("out"), (std::vector<std::int32_t>{3, 6, 9, 12}));
}

TEST(InterpreterTest, RuntimeErrors) {
  EXPECT_THROW(run_source("int main() { int z = 0; return 1 / z; }"), Error);
  EXPECT_THROW(run_source("int a[2]; int main() { return a[5]; }"), Error);
  Interpreter endless(minic::compile("int main() { while (1) { } return 0; }"));
  EXPECT_THROW(endless.run(/*max_instructions=*/10'000), Error);
}

TEST(InterpreterTest, ProfileCountsMatchLoopTripCounts) {
  const ir::TacProgram tac = minic::compile(R"(
    int acc;
    int main() {
      for (int i = 0; i < 6; i++) {
        for (int j = 0; j < 4; j++) { acc += i * j; }
      }
      return acc;
    }
  )");
  Interpreter interp(tac);
  const RunResult result = interp.run();

  // Find the inner-loop body block via the CDFG's loop analysis: depth-2
  // blocks must have executed 24 times.
  ir::Cdfg cdfg = ir::build_cdfg(tac);
  bool found_depth2 = false;
  for (const auto& block : cdfg.blocks()) {
    if (block.loop_depth == 2 &&
        test::total_schedulable(block.dfg.op_mix()) > 0 &&
        result.profile.count(block.id) == 24) {
      found_depth2 = true;
    }
  }
  EXPECT_TRUE(found_depth2);
  EXPECT_EQ(result.return_value, 90);
}

TEST(InterpreterTest, DynamicAnalysisFeedsKernelExtraction) {
  // End-to-end front-end -> profile -> CDFG pipeline sanity.
  const ir::TacProgram tac = minic::compile(R"(
    int data[64];
    int main() {
      int acc = 0;
      for (int i = 0; i < 64; i++) {
        acc += data[i] * data[i];
      }
      return acc;
    }
  )");
  Interpreter interp(tac);
  const RunResult result = interp.run();
  EXPECT_GT(result.blocks_executed, 64u);
  EXPECT_GE(result.instructions_executed, 64u * 4u);
}

}  // namespace
}  // namespace amdrel::interp
