#include "ir/dfg.h"

#include <gtest/gtest.h>

#include "frontend_oracle.h"
#include "support/error.h"
#include "test_helpers.h"

namespace amdrel::ir {
namespace {

Dfg make_diamond() {
  // in0  in1
  //   |  |
  //    add        (level 1)
  //   |    |
  // mul    sub    (level 2)
  //    |  |
  //    xor        (level 3)
  Dfg dfg;
  const NodeId in0 = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId in1 = dfg.add_node(OpKind::kInput, {}, "b");
  const NodeId add = dfg.add_node(OpKind::kAdd, {in0, in1});
  const NodeId mul = dfg.add_node(OpKind::kMul, {add, in1});
  const NodeId sub = dfg.add_node(OpKind::kSub, {add, in0});
  const NodeId x = dfg.add_node(OpKind::kXor, {mul, sub});
  dfg.add_node(OpKind::kOutput, {x});
  return dfg;
}

TEST(DfgTest, AsapLevelsFollowLongestPath) {
  const Dfg dfg = make_diamond();
  const auto levels = dfg.asap_levels();
  EXPECT_EQ(levels[0], 0);  // input
  EXPECT_EQ(levels[1], 0);  // input
  EXPECT_EQ(levels[2], 1);  // add
  EXPECT_EQ(levels[3], 2);  // mul
  EXPECT_EQ(levels[4], 2);  // sub
  EXPECT_EQ(levels[5], 3);  // xor
  EXPECT_EQ(levels[6], 0);  // output marker
  EXPECT_EQ(test::max_asap_level(dfg), 3);
}

TEST(DfgTest, AlapEqualsAsapOnCriticalPath) {
  const Dfg dfg = make_diamond();
  const auto asap = dfg.asap_levels();
  const auto alap = dfg.alap_levels();
  // add -> mul -> xor and add -> sub -> xor are both tight here.
  for (NodeId id = 2; id <= 5; ++id) {
    EXPECT_EQ(asap[id], alap[id]) << "node " << id;
  }
}

TEST(DfgTest, AlapNeverBelowAsap) {
  Dfg dfg;
  const NodeId in = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId c = dfg.add_const(3);
  const NodeId a = dfg.add_node(OpKind::kAdd, {in, c});
  const NodeId b = dfg.add_node(OpKind::kMul, {in, c});  // slack 1
  const NodeId d = dfg.add_node(OpKind::kSub, {a, c});
  const NodeId e = dfg.add_node(OpKind::kXor, {d, b});
  dfg.add_node(OpKind::kOutput, {e});
  const auto asap = dfg.asap_levels();
  const auto alap = dfg.alap_levels();
  for (NodeId id = 0; id < dfg.size(); ++id) {
    EXPECT_GE(alap[id], asap[id]) << "node " << id;
  }
  EXPECT_GT(alap[b] - asap[b], 0);  // the side chain has mobility
}

TEST(DfgTest, OpMixCountsClasses) {
  const Dfg dfg = make_diamond();
  const OpMix mix = dfg.op_mix();
  EXPECT_EQ(mix.alu, 3);   // add, sub, xor
  EXPECT_EQ(mix.mul, 1);
  EXPECT_EQ(mix.mem, 0);
  EXPECT_EQ(mix.meta, 3);  // two inputs + one output
  EXPECT_EQ(test::total_schedulable(mix), 4);
}

TEST(DfgTest, LiveInAndOutCounts) {
  const Dfg dfg = make_diamond();
  EXPECT_EQ(dfg.live_in_count(), 2);
  EXPECT_EQ(dfg.live_out_count(), 1);
}

TEST(DfgTest, OperandMustPrecedeNode) {
  Dfg dfg;
  EXPECT_THROW(dfg.add_node(OpKind::kAdd, {0, 1}), Error);
}

TEST(DfgTest, HasDivisionDetectsDivAndMod) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId b = dfg.add_node(OpKind::kInput, {}, "b");
  EXPECT_FALSE(dfg.has_division());
  dfg.add_node(OpKind::kMod, {a, b});
  EXPECT_TRUE(dfg.has_division());
}

TEST(DfgTest, ValidateRejectsBadArity) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  dfg.add_node(OpKind::kNot, {a});
  EXPECT_NO_THROW(dfg.validate());
}

TEST(DfgTest, UsersTracksConsumers) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId b = dfg.add_node(OpKind::kInput, {}, "b");
  const NodeId add = dfg.add_node(OpKind::kAdd, {a, b});
  const NodeId mul = dfg.add_node(OpKind::kMul, {a, add});
  EXPECT_EQ(dfg.users(a).size(), 2u);
  EXPECT_EQ(dfg.users(add).size(), 1u);
  EXPECT_EQ(dfg.users(add)[0], mul);
  EXPECT_TRUE(dfg.users(mul).empty());
}

TEST(DfgTest, EmptyGraphHasZeroDepth) {
  Dfg dfg;
  EXPECT_EQ(test::max_asap_level(dfg), 0);
  EXPECT_TRUE(dfg.empty());
  EXPECT_NO_THROW(dfg.validate());
}

TEST(DfgTest, LevelOccupancyCountsSchedulableNodes) {
  const Dfg dfg = make_diamond();
  const auto occ = oracle::level_occupancy(dfg);
  ASSERT_EQ(occ.size(), 4u);
  EXPECT_EQ(occ[1], 1);
  EXPECT_EQ(occ[2], 2);
  EXPECT_EQ(occ[3], 1);
}

}  // namespace
}  // namespace amdrel::ir
