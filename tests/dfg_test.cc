#include "ir/dfg.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "frontend_oracle.h"
#include "support/error.h"
#include "synth/dfg_generator.h"
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
  EXPECT_EQ(*dfg.users(add).begin(), mul);
  EXPECT_TRUE(dfg.users(mul).empty());
}

std::vector<NodeId> users_of(const Dfg& dfg, NodeId id) {
  const Dfg::Users users = dfg.users(id);
  return {users.begin(), users.end()};
}

/// Every (user, operand) pair in ascending user id, found by scanning
/// every node's operands.
std::vector<NodeId> scanned_users(const Dfg& dfg, NodeId id) {
  std::vector<NodeId> users;
  for (NodeId user = 0; user < dfg.size(); ++user) {
    for (NodeId operand : dfg.node(user).operands()) {
      if (operand == id) users.push_back(user);
    }
  }
  return users;
}

TEST(DfgTest, AddNodeRejectsThreeOperandsAndLeavesGraphUnchanged) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId b = dfg.add_node(OpKind::kInput, {}, "b");
  const NodeId add = dfg.add_node(OpKind::kAdd, {a, b}, "sum");
  EXPECT_THROW(dfg.add_node(OpKind::kAdd, {a, b, add}, "bad"), Error);
  EXPECT_THROW(dfg.add_node(OpKind::kAdd, {a, 7}, "bad"), Error);
  ASSERT_EQ(dfg.size(), 3);
  EXPECT_EQ(dfg.label(add), "sum");
  EXPECT_EQ(users_of(dfg, a), std::vector<NodeId>{add});
  EXPECT_EQ(users_of(dfg, b), std::vector<NodeId>{add});
  EXPECT_TRUE(dfg.users(add).empty());
  const NodeId next = dfg.add_node(OpKind::kNeg, {add}, "next");
  EXPECT_EQ(next, 3);
  EXPECT_EQ(dfg.label(next), "next");
  EXPECT_EQ(users_of(dfg, add), std::vector<NodeId>{next});
  EXPECT_NO_THROW(dfg.validate());
}

TEST(DfgTest, LabelsRoundTrip) {
  const std::string long_label = "a_label_longer_than_fifteen_chars";
  Dfg dfg;
  const NodeId empty = dfg.add_node(OpKind::kInput);
  const NodeId shorter = dfg.add_node(OpKind::kInput, {}, "x");
  const NodeId longer = dfg.add_node(OpKind::kAdd, {empty, shorter},
                                     long_label);
  const NodeId constant = dfg.add_const(-4, "%12");
  const NodeId after = dfg.add_node(OpKind::kOutput, {longer});
  EXPECT_EQ(dfg.label(empty), "");
  EXPECT_EQ(dfg.label(shorter), "x");
  EXPECT_EQ(dfg.label(longer), long_label);
  EXPECT_EQ(dfg.label(constant), "%12");
  EXPECT_EQ(dfg.node(constant).imm, -4);
  EXPECT_EQ(dfg.label(after), "");
  EXPECT_THROW(dfg.label(after + 1), Error);
}

TEST(DfgTest, UsersEqualAnOperandScanOnSynthGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    synth::DfgGenConfig config;
    config.alu_ops = 10 + static_cast<int>(seed % 7) * 6;
    config.mul_ops = static_cast<int>(seed % 5);
    config.load_ops = 3;
    config.store_ops = 2;
    config.target_width = 1 + static_cast<int>(seed % 4);
    config.seed = seed;
    const Dfg dfg = synth::generate_dfg(config);
    for (NodeId id = 0; id < dfg.size(); ++id) {
      const std::vector<NodeId> want = scanned_users(dfg, id);
      EXPECT_EQ(users_of(dfg, id), want) << "seed " << seed << " node " << id;
      EXPECT_EQ(dfg.users(id).size(), want.size());
      EXPECT_EQ(dfg.users(id).empty(), want.empty());
    }
  }
}

TEST(DfgTest, UsersListAUserOnceForEachOperandSlot) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId twice = dfg.add_node(OpKind::kMul, {a, a});
  const NodeId once = dfg.add_node(OpKind::kAdd, {twice, a});
  EXPECT_EQ(users_of(dfg, a), (std::vector<NodeId>{twice, twice, once}));
}

TEST(DfgTest, CopiedAndMovedGraphsKeepLabelsAndUsers) {
  synth::DfgGenConfig config;
  config.seed = 7;
  const Dfg original = synth::generate_dfg(config);
  const Dfg copy = original;
  Dfg source = original;
  const Dfg moved = std::move(source);
  Dfg assigned;
  assigned = copy;
  const Dfg* const graphs[] = {&copy, &moved, &assigned};
  for (const Dfg* dfg : graphs) {
    ASSERT_EQ(dfg->size(), original.size());
    for (NodeId id = 0; id < original.size(); ++id) {
      EXPECT_EQ(dfg->node(id).kind, original.node(id).kind);
      EXPECT_EQ(dfg->node(id).operands(), original.node(id).operands());
      EXPECT_EQ(dfg->label(id), original.label(id)) << "node " << id;
      EXPECT_EQ(dfg->users(id), original.users(id)) << "node " << id;
      EXPECT_EQ(users_of(*dfg, id), scanned_users(original, id));
    }
  }
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
