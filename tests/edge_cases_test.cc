// Edge cases across the stack: front-end corner semantics, CDFG analysis
// on awkward graphs, engine flags, and error paths.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>

#include "core/methodology.h"
#include "core/report.h"
#include "exhaustive_oracle.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "support/error.h"
#include "support/strings.h"
#include "test_helpers.h"
#include "workloads/paper_models.h"

namespace amdrel {
namespace {

std::int32_t run_main(const std::string& source) {
  interp::Interpreter interp(minic::compile(source));
  return interp.run().return_value;
}

// ---- front-end semantics ----------------------------------------------

TEST(MinicEdgeCases, ContinueInForJumpsToStep) {
  // continue must still execute the step expression (C semantics).
  EXPECT_EQ(run_main(R"(
    int main() {
      int sum = 0;
      for (int i = 0; i < 10; i++) {
        if (i < 8) { continue; }
        sum += i;
      }
      return sum;  // 8 + 9
    }
  )"),
            17);
}

TEST(MinicEdgeCases, ForWithoutConditionUsesBreak) {
  EXPECT_EQ(run_main(R"(
    int main() {
      int n = 0;
      for (;;) {
        n++;
        if (n == 5) { break; }
      }
      return n;
    }
  )"),
            5);
}

TEST(MinicEdgeCases, ShadowingInNestedScopes) {
  EXPECT_EQ(run_main(R"(
    int main() {
      int x = 1;
      {
        int x = 2;
        { int x = 3; x = x + 1; }
        x = x * 10;
      }
      return x;  // outer x untouched
    }
  )"),
            1);
}

TEST(MinicEdgeCases, FunctionValueUsedInsideCondition) {
  EXPECT_EQ(run_main(R"(
    int clamp(int v, int hi) {
      if (v > hi) { return hi; }
      return v;
    }
    int main() {
      int total = 0;
      for (int i = 0; i < 10; i++) {
        if (clamp(i, 4) == 4 && i % 2 == 0) { total += i; }
      }
      return total;  // 4 + 6 + 8
    }
  )"),
            18);
}

TEST(MinicEdgeCases, NestedCallsAsArguments) {
  EXPECT_EQ(run_main(R"(
    int add(int a, int b) { return a + b; }
    int twice(int a) { return 2 * a; }
    int main() { return add(twice(add(1, 2)), twice(4)); }  // 6 + 8
  )"),
            14);
}

TEST(MinicEdgeCases, GlobalScalarInitializersRunOnce) {
  EXPECT_EQ(run_main(R"(
    int base = 40;
    int derived = 0;
    int main() { derived = base + 2; return derived; }
  )"),
            42);
}

TEST(MinicEdgeCases, LocalArrayInitializerReappliesEachExecution) {
  // The auto-array initializer must re-run per declaration execution.
  EXPECT_EQ(run_main(R"(
    int probe() {
      int tmp[2] = {10, 20};
      int r = tmp[0] + tmp[1];
      tmp[0] = 999;
      return r;
    }
    int main() {
      int total = 0;
      for (int i = 0; i < 3; i++) { total += probe(); }
      return total;  // 30 * 3, never 999-polluted
    }
  )"),
            90);
}

TEST(MinicEdgeCases, EmptyFunctionBodyAndVoidCalls) {
  EXPECT_EQ(run_main(R"(
    void nop() {}
    int main() { nop(); nop(); return 7; }
  )"),
            7);
}

TEST(MinicEdgeCases, MissingReturnYieldsZero) {
  EXPECT_EQ(run_main(R"(
    int maybe(int x) { if (x > 0) { return 5; } }
    int main() { return maybe(-1) + maybe(1); }
  )"),
            5);
}

TEST(MinicEdgeCases, DeadCodeAfterReturnIsTolerated) {
  EXPECT_EQ(run_main(R"(
    int main() {
      return 3;
      return 4;
    }
  )"),
            3);
}

TEST(MinicEdgeCases, UnaryChains) {
  EXPECT_EQ(run_main("int main() { return - - -5; }"), -5);
  EXPECT_EQ(run_main("int main() { return !!7; }"), 1);
  EXPECT_EQ(run_main("int main() { return ~~9; }"), 9);
}

// ---- CDFG / analysis edge cases -----------------------------------------

TEST(CdfgEdgeCases, IrreducibleLikeDiamondHasNoFalseLoops) {
  ir::Cdfg cdfg("diamond");
  const auto a = cdfg.add_block();
  const auto b = cdfg.add_block();
  const auto c = cdfg.add_block();
  const auto d = cdfg.add_block();
  cdfg.add_edge(a, b);
  cdfg.add_edge(a, c);
  cdfg.add_edge(b, d);
  cdfg.add_edge(c, d);
  cdfg.set_entry(a);
  EXPECT_TRUE(cdfg.analyze_loops().empty());
  for (const auto& block : cdfg.blocks()) {
    EXPECT_EQ(block.loop_depth, 0);
  }
}

TEST(CdfgEdgeCases, TwoLatchesOneHeaderCountOnce) {
  // while-loop with a continue: two back edges into one header must not
  // double the nesting depth.
  const ir::TacProgram tac = minic::compile(R"(
    int main() {
      int n = 0;
      for (int i = 0; i < 9; i++) {
        if (i % 3 == 0) { continue; }
        n += i;
      }
      return n;
    }
  )");
  ir::Cdfg cdfg = ir::build_cdfg(tac);
  for (const auto& block : cdfg.blocks()) {
    EXPECT_LE(block.loop_depth, 1) << block.name;
  }
}

TEST(AnalysisEdgeCases, EmptyProfileNoKernels) {
  const auto app = workloads::build_ofdm_model();
  EXPECT_TRUE(analysis::extract_kernels(app.cdfg, ir::ProfileData{}).empty());
}

// ---- engine edge cases ---------------------------------------------------

TEST(EngineEdgeCases, StopWhenMetFalseFindsBestSplit) {
  const auto app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  core::MethodologyOptions stop;
  core::MethodologyOptions greedy_all;
  greedy_all.stop_when_met = false;
  const auto early = core::run_methodology(app.cdfg, app.profile, p,
                                           workloads::kOfdmTimingConstraint,
                                           stop);
  const auto best = core::run_methodology(app.cdfg, app.profile, p,
                                          workloads::kOfdmTimingConstraint,
                                          greedy_all);
  EXPECT_LE(best.final_cycles, early.final_cycles);
  EXPECT_GE(best.moved.size(), early.moved.size());
}

TEST(EngineEdgeCases, SkipUnprofitableNeverWorseThanPlainGreedy) {
  const auto app = workloads::build_jpeg_model();
  const auto p = platform::make_paper_platform(1500, 2);
  core::MethodologyOptions plain;
  plain.stop_when_met = false;
  core::MethodologyOptions skip = plain;
  skip.skip_unprofitable = true;
  const auto a = core::run_methodology(app.cdfg, app.profile, p, 1, plain);
  const auto b = core::run_methodology(app.cdfg, app.profile, p, 1, skip);
  EXPECT_LE(b.final_cycles, a.final_cycles);
}

TEST(EngineEdgeCases, ZeroConstraintNeverMet) {
  const auto app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const auto report = core::run_methodology(app.cdfg, app.profile, p, 0);
  EXPECT_FALSE(report.met);
}

TEST(EngineEdgeCases, DescribeMentionsKeyFacts) {
  const auto app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  const auto report = core::run_methodology(app.cdfg, app.profile, p,
                                            workloads::kOfdmTimingConstraint);
  const std::string text = core::describe(report, app.cdfg);
  EXPECT_NE(text.find("ofdm_tx"), std::string::npos);
  EXPECT_NE(text.find("BB22"), std::string::npos);
  EXPECT_NE(text.find("constraint met"), std::string::npos);
}

TEST(EngineEdgeCases, AllCoarseBeatsAllFineOnPaperApps) {
  for (const auto& app :
       {workloads::build_ofdm_model(), workloads::build_jpeg_model()}) {
    const auto p = platform::make_paper_platform(1500, 2);
    const auto report = test::all_coarse_split(app.cdfg, app.profile, p, 1);
    EXPECT_LT(report.final_cycles, report.initial_cycles) << app.cdfg.name();
  }
}

// ---- error paths ----------------------------------------------------------

TEST(ErrorPaths, InterpreterRejectsUnknownArrays) {
  interp::Interpreter interp(minic::compile("int main() { return 0; }"));
  EXPECT_THROW(interp.set_input("nope", {1}), Error);
  EXPECT_THROW(interp.array("nope"), Error);
}

TEST(ErrorPaths, InterpreterRejectsOversizedInput) {
  interp::Interpreter interp(
      minic::compile("int buf[2]; int main() { return buf[0]; }"));
  EXPECT_THROW(interp.set_input("buf", {1, 2, 3}), Error);
}

TEST(ErrorPaths, InterpreterRejectsConstInput) {
  interp::Interpreter interp(minic::compile(
      "const int t[2] = {1,2}; int main() { return t[0]; }"));
  EXPECT_THROW(interp.set_input("t", {9, 9}), Error);
}

TEST(ErrorPaths, ExhaustiveOptimalRejectsHugeK) {
  const auto app = workloads::build_ofdm_model();
  const auto p = platform::make_paper_platform(1500, 2);
  EXPECT_THROW(core::exhaustive_optimal(app.cdfg, app.profile, p, 1000, 30),
               Error);
}

TEST(ErrorPaths, TacValidateCatchesStoreToConst) {
  ir::TacProgram tac;
  tac.name = "bad";
  tac.num_regs = 2;
  tac.reg_names = {"", ""};
  ir::ArraySymbol table;
  table.name = "t";
  table.size = 1;
  table.is_const = true;
  table.init = {1};
  tac.arrays.push_back(table);
  ir::TacBlock block;
  block.id = 0;
  ir::TacInstr store;
  store.op = ir::OpKind::kStore;
  store.array = 0;
  store.src1 = 0;
  store.src2 = 1;
  block.body.push_back(store);
  tac.blocks.push_back(block);
  tac.entry = 0;
  EXPECT_THROW(tac.validate(), Error);
}

// A store defines no register (tac.h documents its dst as -1). A store
// carrying one must be rejected before build_cdfg records it as a
// definition of a register nothing else validated.
TEST(ErrorPaths, TacValidateRejectsStoreWithDestination) {
  for (const int dst : {0, 7, -2}) {
    ir::TacProgram tac;
    tac.name = "bad";
    tac.num_regs = 2;
    ir::ArraySymbol buffer;
    buffer.name = "buf";
    buffer.size = 4;
    tac.arrays.push_back(buffer);
    ir::TacBlock block;
    block.id = 0;
    ir::TacInstr store;
    store.op = ir::OpKind::kStore;
    store.dst = dst;
    store.array = 0;
    store.src1 = 0;
    store.src2 = 1;
    block.body.push_back(store);
    tac.blocks.push_back(block);
    tac.entry = 0;
    const std::string expected =
        "TacProgram::validate: bad dst register " + std::to_string(dst);
    for (const bool via_build : {false, true}) {
      try {
        if (via_build) {
          (void)ir::build_cdfg(tac);
        } else {
          tac.validate();
        }
        ADD_FAILURE() << "store with dst " << dst << " accepted";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), expected);
      }
    }
    tac.blocks[0].body[0].dst = -1;
    EXPECT_NO_THROW(tac.validate());
  }
}

// ---- require ----------------------------------------------------------------

// A message part that counts how often it is formatted.
struct CountedPart {
  int* streamed;
};

std::ostream& operator<<(std::ostream& os, const CountedPart& part) {
  ++*part.streamed;
  return os << "counted";
}

template <class... Parts>
std::string failure_message(const Parts&... parts) {
  try {
    require(false, parts...);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "require(false, ...) did not throw";
  return {};
}

TEST(Require, PassingCheckFormatsNoPart) {
  int streamed = 0;
  const CountedPart part{&streamed};
  for (int i = 0; i < 3; ++i) require(true, "bad id ", part, ' ', i);
  EXPECT_EQ(streamed, 0);
  EXPECT_THROW(require(false, "bad id ", part), Error);
  EXPECT_EQ(streamed, 1);
}

TEST(Require, FailureMessageIsCatOfParts) {
  EXPECT_EQ(failure_message("interpreter: division by zero"),
            cat("interpreter: division by zero"));
  const std::string owned = "cannot open missing.mc";
  EXPECT_EQ(failure_message(owned), cat(owned));
  const std::string_view view = "block";
  const std::string tail = " of 3";
  EXPECT_EQ(failure_message("Dfg::node: bad id ", 42, ' ', view, ':', -7, tail),
            cat("Dfg::node: bad id ", 42, ' ', view, ':', -7, tail));
  EXPECT_EQ(failure_message("Dfg::node: bad id ", 42, ' ', view, ':', -7, tail),
            "Dfg::node: bad id 42 block:-7 of 3");
}

TEST(Require, LiteralMessageMatchesStringMessage) {
  // A lone literal throws the bytes a std::string message built from
  // the same literal did.
  std::string string_message;
  try {
    fail(std::string("interpreter: division by zero"));
  } catch (const Error& e) {
    string_message = e.what();
  }
  EXPECT_EQ(failure_message("interpreter: division by zero"), string_message);
  EXPECT_EQ(string_message, "interpreter: division by zero");
}

}  // namespace
}  // namespace amdrel
