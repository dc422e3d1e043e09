#include "coarsegrain/cgc_mapper.h"
#include "coarsegrain/cgc_scheduler.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "synth/dfg_generator.h"
#include "test_helpers.h"

namespace amdrel::coarsegrain {
namespace {

using ir::Dfg;
using ir::NodeId;
using ir::OpKind;

platform::CgcModel two_2x2() {
  platform::CgcModel cgc;
  cgc.count = 2;
  cgc.rows = 2;
  cgc.cols = 2;
  return cgc;
}

TEST(CgcSchedulerTest, MultiplyAddChainsInOneCycle) {
  // (a * b) + c : the paper's canonical complex operation — one cycle.
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId b = dfg.add_node(OpKind::kInput, {}, "b");
  const NodeId c = dfg.add_node(OpKind::kInput, {}, "c");
  const NodeId mul = dfg.add_node(OpKind::kMul, {a, b});
  const NodeId add = dfg.add_node(OpKind::kAdd, {mul, c});
  dfg.add_node(OpKind::kOutput, {add});

  const auto sched = schedule_dfg_on_cgc(dfg, two_2x2());
  EXPECT_EQ(sched.start[mul], 0);
  EXPECT_EQ(sched.start[add], 0);  // chained below the multiplier
  EXPECT_EQ(sched.placement[mul].cgc, sched.placement[add].cgc);
  EXPECT_GT(sched.placement[add].row, sched.placement[mul].row);
  EXPECT_EQ(sched.total_cgc_cycles, 1);
}

TEST(CgcSchedulerTest, ChainDeeperThanRowsTakesTwoCycles) {
  // A 3-deep chain cannot fit a 2-row CGC in one cycle.
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  const NodeId n2 = dfg.add_node(OpKind::kMul, {n1, a});
  const NodeId n3 = dfg.add_node(OpKind::kSub, {n2, a});
  dfg.add_node(OpKind::kOutput, {n3});
  const auto sched = schedule_dfg_on_cgc(dfg, two_2x2());
  EXPECT_EQ(sched.total_cgc_cycles, 2);
}

TEST(CgcSchedulerTest, SlotsLimitParallelism) {
  // 9 independent ops on two 2x2 CGCs (8 slots) need two cycles.
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  for (int i = 0; i < 9; ++i) dfg.add_node(OpKind::kAdd, {a, a});
  const auto sched = schedule_dfg_on_cgc(dfg, two_2x2());
  EXPECT_EQ(sched.total_cgc_cycles, 2);
}

TEST(CgcSchedulerTest, MoreCgcsReduceLatency) {
  synth::DfgGenConfig config;
  config.alu_ops = 40;
  config.mul_ops = 12;
  config.load_ops = 0;
  config.store_ops = 0;
  config.target_width = 8;
  config.seed = 7;
  const Dfg dfg = synth::generate_dfg(config);
  platform::CgcModel small = two_2x2();
  platform::CgcModel big = two_2x2();
  big.count = 3;
  const auto sched_small = schedule_dfg_on_cgc(dfg, small);
  const auto sched_big = schedule_dfg_on_cgc(dfg, big);
  EXPECT_LE(sched_big.total_cgc_cycles, sched_small.total_cgc_cycles);
}

TEST(CgcSchedulerTest, RejectsDivision) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  dfg.add_node(OpKind::kDiv, {a, a});
  EXPECT_THROW(schedule_dfg_on_cgc(dfg, two_2x2()), Error);
}

TEST(CgcSchedulerTest, DmaMemoryAddsBurstCycles) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "addr");
  const NodeId l1 = dfg.add_node(OpKind::kLoad, {a});
  const NodeId l2 = dfg.add_node(OpKind::kLoad, {a});
  const NodeId add = dfg.add_node(OpKind::kAdd, {l1, l2});
  dfg.add_node(OpKind::kStore, {a, add});

  platform::CgcModel cgc = two_2x2();
  cgc.dma_memory = true;
  cgc.mem_ports = 2;
  cgc.mem_access_cgc_cycles = 3;
  const auto sched = schedule_dfg_on_cgc(dfg, cgc);
  EXPECT_EQ(sched.mem_accesses, 3);
  // compute latency 1 + ceil(3/2)=2 bursts * 3 cycles = 7.
  EXPECT_EQ(sched.total_cgc_cycles, 1 + 2 * 3);
}

TEST(CgcSchedulerTest, PortScheduledMemorySerializes) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "addr");
  const NodeId l1 = dfg.add_node(OpKind::kLoad, {a});
  const NodeId l2 = dfg.add_node(OpKind::kLoad, {a});
  const NodeId add = dfg.add_node(OpKind::kAdd, {l1, l2});
  dfg.add_node(OpKind::kOutput, {add});

  platform::CgcModel cgc = two_2x2();
  cgc.dma_memory = false;
  cgc.mem_ports = 1;
  cgc.mem_access_cgc_cycles = 2;
  const auto sched = schedule_dfg_on_cgc(dfg, cgc);
  // load1 [0,2), load2 [2,4), add at 4.
  EXPECT_EQ(sched.total_cgc_cycles, 5);
}

TEST(CgcSchedulerTest, PrecedenceInvariantHoldsOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    synth::DfgGenConfig config;
    config.alu_ops = 30;
    config.mul_ops = 10;
    config.load_ops = 6;
    config.store_ops = 3;
    config.seed = seed;
    const Dfg dfg = synth::generate_dfg(config);
    platform::CgcModel cgc = two_2x2();
    cgc.dma_memory = false;
    const auto sched = schedule_dfg_on_cgc(dfg, cgc);
    for (NodeId v = 0; v < dfg.size(); ++v) {
      const auto& node = dfg.node(v);
      if (!ir::is_schedulable(node.kind)) continue;
      for (NodeId u : node.operands()) {
        if (!ir::is_schedulable(dfg.node(u).kind)) continue;
        // Either the operand finished in an earlier cycle, or both are in
        // the same cycle of the same CGC with increasing rows (chaining).
        if (sched.start[v] >= 0 && sched.start[u] >= 0 &&
            sched.finish[u] > sched.start[v]) {
          EXPECT_EQ(sched.start[u], sched.start[v]) << "seed " << seed;
          if (sched.placement[u].bound() && sched.placement[v].bound()) {
            EXPECT_EQ(sched.placement[u].cgc, sched.placement[v].cgc);
            EXPECT_LT(sched.placement[u].row, sched.placement[v].row);
          }
        }
      }
    }
  }
}

TEST(CgcSchedulerTest, NoSlotDoubleBooking) {
  for (std::uint64_t seed = 21; seed <= 30; ++seed) {
    synth::DfgGenConfig config;
    config.alu_ops = 50;
    config.mul_ops = 15;
    config.target_width = 10;
    config.seed = seed;
    const Dfg dfg = synth::generate_dfg(config);
    const auto cgc = two_2x2();
    const auto sched = schedule_dfg_on_cgc(dfg, cgc);
    std::map<std::tuple<std::int64_t, int, int, int>, int> cells;
    for (NodeId id = 0; id < dfg.size(); ++id) {
      if (!sched.placement[id].bound()) continue;
      const auto key = std::make_tuple(sched.start[id], sched.placement[id].cgc,
                                       sched.placement[id].row,
                                       sched.placement[id].col);
      EXPECT_EQ(++cells[key], 1) << "seed " << seed;
    }
  }
}

TEST(CgcMapperTest, FpgaCycleConversionRoundsUp) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  const NodeId n2 = dfg.add_node(OpKind::kMul, {n1, a});
  const NodeId n3 = dfg.add_node(OpKind::kSub, {n2, a});
  const NodeId n4 = dfg.add_node(OpKind::kXor, {n3, a});
  dfg.add_node(OpKind::kOutput, {n4});
  platform::Platform p = platform::make_paper_platform(1500, 2);
  const auto mapping = map_block_to_cgc(dfg, p);
  EXPECT_EQ(mapping.cycles_per_invocation_fpga,
            (mapping.schedule.total_cgc_cycles + 2) / 3);
  EXPECT_GE(mapping.cycles_per_invocation_fpga, 1);
}

TEST(CgcMapperTest, TotalCyclesSumsMovedBlocks) {
  ir::Cdfg cdfg("app");
  const auto b0 = cdfg.add_block();
  const auto b1 = cdfg.add_block();
  for (ir::BlockId b : {b0, b1}) {
    auto& dfg = cdfg.block(b).dfg;
    const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
    dfg.add_node(OpKind::kAdd, {a, a});
  }
  platform::Platform p = platform::make_paper_platform(1500, 2);
  std::vector<CgcBlockMapping> mappings;
  mappings.push_back(map_block_to_cgc(cdfg.block(b0).dfg, p));
  mappings.push_back(map_block_to_cgc(cdfg.block(b1).dfg, p));
  ir::ProfileData profile;
  profile.set_count(b0, 10);
  profile.set_count(b1, 5);
  const auto total = test::cgc_total_cycles(mappings, {b0, b1}, profile);
  EXPECT_EQ(total, 10 * mappings[0].cycles_per_invocation_fpga +
                       5 * mappings[1].cycles_per_invocation_fpga);
}

}  // namespace
}  // namespace amdrel::coarsegrain
