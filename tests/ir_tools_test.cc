#include <cstdint>

#include <gtest/gtest.h>

#include "core/report.h"
#include "ir/build_cdfg.h"
#include "ir/dot.h"
#include "minic/frontend.h"
#include "schedule_dump.h"
#include "support/strings.h"

namespace amdrel {
namespace {

TEST(DotExportTest, DfgContainsNodesAndEdges) {
  ir::Dfg dfg;
  const auto a = dfg.add_node(ir::OpKind::kInput, {}, "a");
  const auto b = dfg.add_const(7);
  const auto m = dfg.add_node(ir::OpKind::kMul, {a, b});
  dfg.add_node(ir::OpKind::kOutput, {m});
  const std::string dot = ir::to_dot(dfg, "test");
  EXPECT_NE(dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(dot.find("mul"), std::string::npos);
  EXPECT_NE(dot.find("#7"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
}

TEST(DotExportTest, CdfgMarksLoopsAndEntry) {
  const ir::TacProgram tac = minic::compile(R"(
    int main() {
      int sum = 0;
      for (int i = 0; i < 4; i++) { sum += i; }
      return sum;
    }
  )");
  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  const std::string dot = ir::to_dot(cdfg);
  EXPECT_NE(dot.find("loop depth 1"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);   // entry
  EXPECT_NE(dot.find("style=dashed"), std::string::npos); // back edge
}

TEST(ScheduleDumpTest, ShowsChainsAndDma) {
  ir::Dfg dfg;
  const auto a = dfg.add_node(ir::OpKind::kInput, {}, "a");
  const auto l = dfg.add_node(ir::OpKind::kLoad, {a});
  const auto m = dfg.add_node(ir::OpKind::kMul, {l, l});
  const auto s = dfg.add_node(ir::OpKind::kAdd, {m, l});
  dfg.add_node(ir::OpKind::kOutput, {s});

  platform::CgcModel cgc;
  const auto schedule = coarsegrain::schedule_dfg_on_cgc(dfg, cgc);
  const std::string dump = test::describe_schedule(schedule, dfg, cgc);
  EXPECT_NE(dump.find("CGC schedule:"), std::string::npos);
  EXPECT_NE(dump.find("mul#"), std::string::npos);
  EXPECT_NE(dump.find("DMA: 1 accesses"), std::string::npos);
}

TEST(TacPrinterTest, ListingShowsBlocksAndArrays) {
  const ir::TacProgram tac = minic::compile(R"(
    const int t[2] = {5, 6};
    int main() { return t[0] + t[1]; }
  )");
  const std::string listing = tac.to_string();
  EXPECT_NE(listing.find("array t[2] const"), std::string::npos);
  EXPECT_NE(listing.find("(entry)"), std::string::npos);
  EXPECT_NE(listing.find("ret"), std::string::npos);
  EXPECT_NE(listing.find("add"), std::string::npos);
}

TEST(TextTableTest, AlignsColumns) {
  core::TextTable table({"a", "long header"});
  table.add_row({"wide value", "x"});
  const std::string text = table.to_string();
  // Column 0 width = len("wide value"): the header row pads accordingly.
  EXPECT_NE(text.find("a           long header"), std::string::npos);
  EXPECT_NE(text.find("wide value  x"), std::string::npos);
}

TEST(WithThousandsTest, FormatsGroups) {
  EXPECT_EQ(core::with_thousands(0), "0");
  EXPECT_EQ(core::with_thousands(999), "999");
  EXPECT_EQ(core::with_thousands(1000), "1,000");
  EXPECT_EQ(core::with_thousands(1234567), "1,234,567");
  EXPECT_EQ(core::with_thousands(-1234567), "-1,234,567");
  EXPECT_EQ(core::with_thousands(INT64_MIN), "-9,223,372,036,854,775,808");
}

TEST(StringsTest, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(cat(), "");
}

TEST(StringsTest, SplitKeepsEveryField) {
  using Fields = std::vector<std::string>;
  EXPECT_EQ(split("a,,b"), (Fields{"a", "", "b"}));
  EXPECT_EQ(split("a,"), (Fields{"a", ""}));
  EXPECT_EQ(split(""), (Fields{""}));
  EXPECT_EQ(split(",a"), (Fields{"", "a"}));
  EXPECT_EQ(split("explore/serve/", '/'), (Fields{"explore", "serve", ""}));
  EXPECT_EQ(split("a,b", '/'), (Fields{"a,b"}));
}

TEST(BuildCdfgTest, LiveInsAndOutsAcrossBlocks) {
  // x defined in entry, consumed in the loop body -> entry has an output
  // marker for x, the body has an input for it.
  const ir::TacProgram tac = minic::compile(R"(
    int out[8];
    int main() {
      int x = 21;
      for (int i = 0; i < 8; i++) { out[i] = x * i; }
      return 0;
    }
  )");
  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  bool some_block_outputs = false;
  bool some_block_inputs = false;
  for (const auto& block : cdfg.blocks()) {
    some_block_outputs |= block.dfg.live_out_count() > 0;
    some_block_inputs |= block.dfg.live_in_count() > 0;
  }
  EXPECT_TRUE(some_block_outputs);
  EXPECT_TRUE(some_block_inputs);
}

TEST(BuildCdfgTest, BlockCountAndEdgesMatchTac) {
  const ir::TacProgram tac = minic::compile(R"(
    int main() {
      int n = 3;
      if (n > 2) { n = 5; } else { n = 7; }
      return n;
    }
  )");
  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  ASSERT_EQ(cdfg.size(), static_cast<ir::BlockId>(tac.blocks.size()));
  for (const auto& block : tac.blocks) {
    switch (block.term.kind) {
      case ir::Terminator::Kind::kBr:
        EXPECT_EQ(cdfg.successors(block.id).size(),
                  block.term.if_true == block.term.if_false ? 1u : 2u);
        break;
      case ir::Terminator::Kind::kJmp:
        EXPECT_EQ(cdfg.successors(block.id).size(), 1u);
        break;
      case ir::Terminator::Kind::kRet:
        EXPECT_TRUE(cdfg.successors(block.id).empty());
        break;
    }
  }
}

TEST(BuildCdfgTest, MemOpsBecomeMemNodes) {
  const ir::TacProgram tac = minic::compile(R"(
    int buffer[4];
    int main() { buffer[1] = buffer[0] + 1; return 0; }
  )");
  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  std::int64_t mem = 0;
  for (const auto& block : cdfg.blocks()) mem += block.dfg.op_mix().mem;
  EXPECT_EQ(mem, 2);  // one load + one store
}

}  // namespace
}  // namespace amdrel
