#include "ir/cdfg.h"

#include <gtest/gtest.h>

#include "frontend_oracle.h"
#include "support/error.h"

namespace amdrel::ir {
namespace {

/// entry -> header <-> body, header -> exit : one natural loop.
Cdfg make_simple_loop() {
  Cdfg cdfg("loop");
  const BlockId entry = cdfg.add_block("entry");
  const BlockId header = cdfg.add_block("header");
  const BlockId body = cdfg.add_block("body");
  const BlockId exit = cdfg.add_block("exit");
  cdfg.add_edge(entry, header);
  cdfg.add_edge(header, body);
  cdfg.add_edge(body, header);
  cdfg.add_edge(header, exit);
  cdfg.set_entry(entry);
  return cdfg;
}

TEST(CdfgTest, DominatorsOfSimpleLoop) {
  const Cdfg cdfg = make_simple_loop();
  // header dominates body and exit; entry dominates everything.
  EXPECT_EQ(cdfg.immediate_dominators(), (std::vector<BlockId>{0, 0, 1, 1}));
  const auto dom = oracle::dominators(cdfg);
  EXPECT_EQ(dom[0], (std::vector<BlockId>{0}));
  EXPECT_EQ(dom[1], (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(dom[2], (std::vector<BlockId>{0, 1, 2}));
  EXPECT_EQ(dom[3], (std::vector<BlockId>{0, 1, 3}));
}

TEST(CdfgTest, NaturalLoopDetection) {
  Cdfg cdfg = make_simple_loop();
  const auto& loops = cdfg.analyze_loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1);
  EXPECT_EQ(loops[0].latch, 2);
  EXPECT_EQ(loops[0].body, (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(cdfg.block(0).loop_depth, 0);
  EXPECT_EQ(cdfg.block(1).loop_depth, 1);
  EXPECT_EQ(cdfg.block(2).loop_depth, 1);
  EXPECT_EQ(cdfg.block(3).loop_depth, 0);
}

TEST(CdfgTest, NestedLoopDepths) {
  // entry -> h1 -> h2 <-> b2 ; h2 -> l1 -> h1 ; h1 -> exit
  Cdfg cdfg("nested");
  const BlockId entry = cdfg.add_block();
  const BlockId h1 = cdfg.add_block();
  const BlockId h2 = cdfg.add_block();
  const BlockId b2 = cdfg.add_block();
  const BlockId l1 = cdfg.add_block();
  const BlockId exit = cdfg.add_block();
  cdfg.add_edge(entry, h1);
  cdfg.add_edge(h1, h2);
  cdfg.add_edge(h2, b2);
  cdfg.add_edge(b2, h2);  // inner back edge
  cdfg.add_edge(h2, l1);
  cdfg.add_edge(l1, h1);  // outer back edge
  cdfg.add_edge(h1, exit);
  cdfg.set_entry(entry);

  cdfg.analyze_loops();
  EXPECT_EQ(cdfg.block(entry).loop_depth, 0);
  EXPECT_EQ(cdfg.block(h1).loop_depth, 1);
  EXPECT_EQ(cdfg.block(h2).loop_depth, 2);
  EXPECT_EQ(cdfg.block(b2).loop_depth, 2);
  EXPECT_EQ(cdfg.block(l1).loop_depth, 1);
  EXPECT_EQ(cdfg.block(exit).loop_depth, 0);
}

TEST(CdfgTest, SelfLoopCountsAsLoop) {
  Cdfg cdfg("self");
  const BlockId entry = cdfg.add_block();
  const BlockId bb = cdfg.add_block();
  const BlockId exit = cdfg.add_block();
  cdfg.add_edge(entry, bb);
  cdfg.add_edge(bb, bb);
  cdfg.add_edge(bb, exit);
  cdfg.set_entry(entry);
  const auto& loops = cdfg.analyze_loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, bb);
  EXPECT_EQ(loops[0].latch, bb);
  EXPECT_EQ(cdfg.block(bb).loop_depth, 1);
}

TEST(CdfgTest, ReversePostOrderStartsAtEntry) {
  const Cdfg cdfg = make_simple_loop();
  const auto rpo = cdfg.reverse_post_order();
  ASSERT_FALSE(rpo.empty());
  EXPECT_EQ(rpo.front(), cdfg.entry());
  EXPECT_EQ(rpo.size(), 4u);
}

TEST(CdfgTest, UnreachableBlocksAreNotVisited) {
  Cdfg cdfg("unreachable");
  const BlockId entry = cdfg.add_block();
  const BlockId reachable = cdfg.add_block();
  cdfg.add_block();  // island
  cdfg.add_edge(entry, reachable);
  cdfg.set_entry(entry);
  EXPECT_EQ(cdfg.reverse_post_order().size(), 2u);
  EXPECT_NO_THROW(cdfg.analyze_loops());
}

TEST(CdfgTest, ParallelEdgesAreDeduplicated) {
  Cdfg cdfg("dup");
  const BlockId a = cdfg.add_block();
  const BlockId b = cdfg.add_block();
  cdfg.add_edge(a, b);
  cdfg.add_edge(a, b);
  EXPECT_EQ(cdfg.successors(a).size(), 1u);
  EXPECT_EQ(cdfg.predecessors(b).size(), 1u);
}

TEST(CdfgTest, AddEdgeValidatesIds) {
  Cdfg cdfg("bad");
  cdfg.add_block();
  EXPECT_THROW(cdfg.add_edge(0, 5), Error);
}

TEST(CdfgTest, ValidateRequiresEntry) {
  Cdfg cdfg("noentry");
  EXPECT_THROW(cdfg.validate(), Error);
  cdfg.add_block();
  EXPECT_NO_THROW(cdfg.validate());  // first block becomes the entry
}

}  // namespace
}  // namespace amdrel::ir
