#include "finegrain/fpga_mapper.h"
#include "finegrain/temporal_partitioner.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "synth/dfg_generator.h"
#include "test_helpers.h"

namespace amdrel::finegrain {
namespace {

using ir::Dfg;
using ir::NodeId;
using ir::OpKind;

platform::FpgaModel unit_fpga(double area) {
  platform::FpgaModel fpga;
  fpga.usable_area = area;
  fpga.area_alu = 1.0;
  fpga.area_mul = 1.0;
  fpga.area_mem = 1.0;
  fpga.delay_alu = 1;
  fpga.delay_mul = 1;
  fpga.delay_mem = 1;
  fpga.parallel_lanes = 1000;  // unlimited ILP for the pseudocode tests
  fpga.invocation_overhead_cycles = 0;
  fpga.reconfig_cycles = 10;
  return fpga;
}

/// The worked example for the Figure-3 pseudocode: 6 unit-area ops over 3
/// ASAP levels, A_FPGA = 2. Level-by-level greedy packing must produce
/// partitions {1,1},{2,2},{3,3} -> 3 partitions of 2 nodes each.
TEST(Figure3PseudocodeTest, PacksLevelByLevel) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId b = dfg.add_node(OpKind::kInput, {}, "b");
  const NodeId l1a = dfg.add_node(OpKind::kAdd, {a, b});
  const NodeId l1b = dfg.add_node(OpKind::kSub, {a, b});
  const NodeId l2a = dfg.add_node(OpKind::kAdd, {l1a, b});
  const NodeId l2b = dfg.add_node(OpKind::kMul, {l1b, a});
  const NodeId l3a = dfg.add_node(OpKind::kXor, {l2a, l2b});
  const NodeId l3b = dfg.add_node(OpKind::kAnd, {l2a, l2b});

  const auto result = partition_dfg(dfg, unit_fpga(2.0));
  EXPECT_EQ(result.num_partitions, 3);
  EXPECT_EQ(result.partition_of[l1a], 1);
  EXPECT_EQ(result.partition_of[l1b], 1);
  EXPECT_EQ(result.partition_of[l2a], 2);
  EXPECT_EQ(result.partition_of[l2b], 2);
  EXPECT_EQ(result.partition_of[l3a], 3);
  EXPECT_EQ(result.partition_of[l3b], 3);
  // Structural nodes occupy no fabric.
  EXPECT_EQ(result.partition_of[a], 0);
  EXPECT_EQ(result.partition_of[b], 0);
}

/// When a level does not fit, the node that overflows opens the next
/// partition and brings its area with it (Figure 3's else branch).
TEST(Figure3PseudocodeTest, OverflowOpensNewPartition) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  const NodeId n2 = dfg.add_node(OpKind::kSub, {a, a});
  const NodeId n3 = dfg.add_node(OpKind::kXor, {a, a});
  const auto result = partition_dfg(dfg, unit_fpga(2.0));
  // All three are level 1; two fit, the third spills.
  EXPECT_EQ(result.num_partitions, 2);
  EXPECT_EQ(result.partition_of[n1], 1);
  EXPECT_EQ(result.partition_of[n2], 1);
  EXPECT_EQ(result.partition_of[n3], 2);
  EXPECT_DOUBLE_EQ(result.partition_area[1], 2.0);
  EXPECT_DOUBLE_EQ(result.partition_area[2], 1.0);
}

TEST(Figure3PseudocodeTest, SingleOpLargerThanAreaThrows) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  dfg.add_node(OpKind::kMul, {a, a});
  platform::FpgaModel fpga = unit_fpga(2.0);
  fpga.area_mul = 5.0;
  EXPECT_THROW(partition_dfg(dfg, fpga), Error);
}

TEST(Figure3PseudocodeTest, EmptyDfgHasNoPartitions) {
  Dfg dfg;
  dfg.add_node(OpKind::kInput, {}, "a");
  const auto result = partition_dfg(dfg, unit_fpga(4.0));
  EXPECT_EQ(result.num_partitions, 0);
}

TEST(TemporalPartitionInvariantTest, AreaNeverExceeded) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    synth::DfgGenConfig config;
    config.alu_ops = 40;
    config.mul_ops = 10;
    config.load_ops = 8;
    config.store_ops = 4;
    config.seed = seed;
    const Dfg dfg = synth::generate_dfg(config);
    platform::FpgaModel fpga;
    fpga.usable_area = 300.0;
    const auto result = partition_dfg(dfg, fpga);
    for (int p = 1; p <= result.num_partitions; ++p) {
      EXPECT_LE(result.partition_area[p], fpga.usable_area)
          << "seed " << seed << " partition " << p;
    }
  }
}

TEST(TemporalPartitionInvariantTest, PartitionIndicesAreMonotoneInLevels) {
  // A node's partition can never precede the partition of a node from an
  // earlier ASAP level (Figure 3 walks levels in order).
  synth::DfgGenConfig config;
  config.alu_ops = 60;
  config.mul_ops = 12;
  config.seed = 99;
  const Dfg dfg = synth::generate_dfg(config);
  platform::FpgaModel fpga;
  fpga.usable_area = 200.0;
  const auto result = partition_dfg(dfg, fpga);
  const auto levels = dfg.asap_levels();
  for (NodeId u = 0; u < dfg.size(); ++u) {
    for (NodeId v = 0; v < dfg.size(); ++v) {
      if (result.partition_of[u] == 0 || result.partition_of[v] == 0) continue;
      if (levels[u] < levels[v]) {
        EXPECT_LE(result.partition_of[u], result.partition_of[v]);
      }
    }
  }
}

TEST(FpgaMapperTest, ExecTimeFollowsLevelsAndLanes) {
  // Two levels, each with two 1-cycle ALU ops; with 1 lane each level
  // costs 2 cycles -> exec = 4 (+0 overhead).
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  const NodeId n2 = dfg.add_node(OpKind::kSub, {a, a});
  const NodeId n3 = dfg.add_node(OpKind::kXor, {n1, n2});
  const NodeId n4 = dfg.add_node(OpKind::kAnd, {n1, n2});
  (void)n3;
  (void)n4;
  platform::FpgaModel fpga = unit_fpga(100.0);
  fpga.parallel_lanes = 1;
  platform::MemoryModel memory;
  const auto mapping = map_block_to_fpga(dfg, fpga, memory);
  EXPECT_EQ(mapping.partitioning.num_partitions, 1);
  EXPECT_EQ(mapping.exec_cycles, 4);
  EXPECT_EQ(mapping.boundary_words, 0);
  EXPECT_EQ(mapping.reconfigs_per_invocation, 0);  // resident, kSwitchOnly
}

TEST(FpgaMapperTest, WideLevelBenefitsFromLanes) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  for (int i = 0; i < 8; ++i) dfg.add_node(OpKind::kAdd, {a, a});
  platform::FpgaModel fpga = unit_fpga(100.0);
  platform::MemoryModel memory;
  fpga.parallel_lanes = 1;
  const auto serial = map_block_to_fpga(dfg, fpga, memory);
  fpga.parallel_lanes = 4;
  const auto parallel = map_block_to_fpga(dfg, fpga, memory);
  EXPECT_EQ(serial.exec_cycles, 8);
  EXPECT_EQ(parallel.exec_cycles, 2);
}

TEST(FpgaMapperTest, BoundaryValuesArePricedThroughSharedMemory) {
  // Force a two-partition split with one crossing value.
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  const NodeId n2 = dfg.add_node(OpKind::kSub, {n1, a});
  (void)n2;
  platform::FpgaModel fpga = unit_fpga(1.0);  // one op per partition
  platform::MemoryModel memory;
  memory.partition_boundary_cycles_per_word = 5;
  const auto mapping = map_block_to_fpga(dfg, fpga, memory);
  EXPECT_EQ(mapping.partitioning.num_partitions, 2);
  EXPECT_EQ(mapping.boundary_words, 2);  // one store + one fill
  EXPECT_EQ(mapping.boundary_cycles, 10);
  EXPECT_EQ(mapping.reconfigs_per_invocation, 1);  // one switch
}

TEST(FpgaMapperTest, ReconfigPolicies) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId n1 = dfg.add_node(OpKind::kAdd, {a, a});
  dfg.add_node(OpKind::kSub, {n1, a});
  platform::FpgaModel fpga = unit_fpga(1.0);
  platform::MemoryModel memory;

  fpga.reconfig_policy = platform::ReconfigPolicy::kNone;
  EXPECT_EQ(map_block_to_fpga(dfg, fpga, memory).reconfigs_per_invocation, 0);

  fpga.reconfig_policy = platform::ReconfigPolicy::kSwitchOnly;
  EXPECT_EQ(map_block_to_fpga(dfg, fpga, memory).reconfigs_per_invocation, 1);

  fpga.reconfig_policy = platform::ReconfigPolicy::kPerPartition;
  EXPECT_EQ(map_block_to_fpga(dfg, fpga, memory).reconfigs_per_invocation, 2);

  fpga.reconfig_policy = platform::ReconfigPolicy::kAmortizedOnce;
  const auto amortized = map_block_to_fpga(dfg, fpga, memory);
  EXPECT_EQ(amortized.reconfigs_per_invocation, 0);
  EXPECT_EQ(amortized.amortized_reconfigs, 2);
}

TEST(FpgaMapperTest, TotalCyclesScalesWithProfile) {
  ir::Cdfg cdfg("app");
  const auto b0 = cdfg.add_block();
  auto& dfg = cdfg.block(b0).dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  dfg.add_node(OpKind::kAdd, {a, a});
  platform::FpgaModel fpga = unit_fpga(10.0);
  platform::MemoryModel memory;
  const auto mappings = test::map_cdfg_to_fpga(cdfg, fpga, memory);
  ir::ProfileData profile;
  profile.set_count(b0, 100);
  EXPECT_EQ(fpga_total_cycles(mappings, profile, fpga),
            100 * mappings[0].cycles_per_invocation(fpga));
  // Masking the block out removes its contribution; keeping it gives the
  // whole equation (4) sum.
  std::vector<bool> none(1, false);
  EXPECT_EQ(test::masked_fpga_total_cycles(mappings, profile, fpga, none), 0);
  std::vector<bool> all(1, true);
  EXPECT_EQ(test::masked_fpga_total_cycles(mappings, profile, fpga, all),
            fpga_total_cycles(mappings, profile, fpga));
}

}  // namespace
}  // namespace amdrel::finegrain
