// The analysis stage against its reference (tests/frontend_oracle.h):
// ir::build_cdfg, Cdfg::analyze_loops / immediate_dominators and the
// fine-grain block mapping must reproduce the old code bit for bit on
// seeded fuzz programs from every benchmark stratum, the built-in MiniC
// applications, the paper's OFDM/JPEG models and hand-built CFGs with
// awkward control flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "finegrain/fpga_mapper.h"
#include "finegrain/temporal_partitioner.h"
#include "frontend_oracle.h"
#include "ir/build_cdfg.h"
#include "ir/cdfg.h"
#include "minic/frontend.h"
#include "support/error.h"
#include "synth/dfg_generator.h"
#include "synth/minic_fuzzer.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

namespace amdrel {
namespace {

using ir::BlockId;
using ir::Cdfg;
using ir::Dfg;
using ir::NodeId;
using ir::OpKind;

// ---- comparisons --------------------------------------------------------

void expect_same_cdfg(const Cdfg& got, const Cdfg& want,
                      const std::string& what) {
  ASSERT_EQ(got.name(), want.name()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.entry(), want.entry()) << what;
  for (BlockId b = 0; b < got.size(); ++b) {
    const std::string where = what + " block " + std::to_string(b);
    EXPECT_EQ(got.block(b).name, want.block(b).name) << where;
    EXPECT_EQ(got.successors(b), want.successors(b)) << where;
    EXPECT_EQ(got.predecessors(b), want.predecessors(b)) << where;
    const Dfg& g = got.block(b).dfg;
    const Dfg& w = want.block(b).dfg;
    ASSERT_EQ(g.size(), w.size()) << where;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Dfg::Node& gn = g.node(id);
      const Dfg::Node& wn = w.node(id);
      const std::string at = where + " node " + std::to_string(id);
      EXPECT_EQ(gn.kind, wn.kind) << at;
      EXPECT_EQ(gn.operands(), wn.operands()) << at;
      EXPECT_EQ(g.label(id), w.label(id)) << at;
      EXPECT_EQ(gn.imm, wn.imm) << at;
      EXPECT_EQ(gn.bit_width, wn.bit_width) << at;
      EXPECT_EQ(g.users(id), w.users(id)) << at;
    }
  }
}

/// The loops and depths analyze_loops() left on `cdfg` equal the oracle's,
/// and the immediate dominators spell out the oracle's dominator sets.
void expect_loops_match_oracle(const Cdfg& cdfg, const std::string& what) {
  const oracle::LoopAnalysis want = oracle::analyze_loops(cdfg);
  ASSERT_EQ(cdfg.loops().size(), want.loops.size()) << what;
  for (std::size_t i = 0; i < want.loops.size(); ++i) {
    EXPECT_EQ(cdfg.loops()[i].header, want.loops[i].header) << what;
    EXPECT_EQ(cdfg.loops()[i].latch, want.loops[i].latch) << what;
    EXPECT_EQ(cdfg.loops()[i].body, want.loops[i].body) << what;
  }
  for (BlockId b = 0; b < cdfg.size(); ++b) {
    EXPECT_EQ(cdfg.block(b).loop_depth, want.loop_depth[b])
        << what << " block " << b;
  }

  const auto dom = oracle::dominators(cdfg);
  const std::vector<BlockId> idom = cdfg.immediate_dominators();
  std::vector<bool> reachable(cdfg.size(), false);
  for (BlockId b : cdfg.reverse_post_order()) reachable[b] = true;
  ASSERT_EQ(idom.size(), static_cast<std::size_t>(cdfg.size())) << what;
  for (BlockId b = 0; b < cdfg.size(); ++b) {
    if (!reachable[b]) {
      EXPECT_EQ(idom[b], ir::kNoBlock) << what << " block " << b;
      continue;
    }
    std::vector<BlockId> chain = {b};
    for (BlockId d = b; d != cdfg.entry(); d = idom[d]) {
      ASSERT_NE(idom[d], ir::kNoBlock) << what << " block " << d;
      chain.push_back(idom[d]);
    }
    std::sort(chain.begin(), chain.end());
    EXPECT_EQ(chain, dom[b]) << what << " block " << b;
  }
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// A mapping, or the message of the Error that mapping threw.
struct Outcome {
  std::optional<finegrain::FpgaBlockMapping> mapping;
  std::string error;
};

template <class Map>
Outcome outcome_of(Map&& map) {
  try {
    return {map(), {}};
  } catch (const Error& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_outcome(const Outcome& got, const Outcome& want,
                         const std::string& what) {
  ASSERT_EQ(got.error, want.error) << what;
  ASSERT_EQ(got.mapping.has_value(), want.mapping.has_value()) << what;
  if (!want.mapping) return;
  const finegrain::FpgaBlockMapping& g = *got.mapping;
  const finegrain::FpgaBlockMapping& w = *want.mapping;
  EXPECT_EQ(g.partitioning.partition_of, w.partitioning.partition_of)
      << what;
  EXPECT_EQ(g.partitioning.num_partitions, w.partitioning.num_partitions)
      << what;
  ASSERT_EQ(g.partitioning.partition_area.size(),
            w.partitioning.partition_area.size())
      << what;
  for (std::size_t p = 0; p < w.partitioning.partition_area.size(); ++p) {
    EXPECT_EQ(bits_of(g.partitioning.partition_area[p]),
              bits_of(w.partitioning.partition_area[p]))
        << what << " partition " << p;
  }
  EXPECT_EQ(g.exec_cycles, w.exec_cycles) << what;
  EXPECT_EQ(g.boundary_words, w.boundary_words) << what;
  EXPECT_EQ(g.boundary_cycles, w.boundary_cycles) << what;
  EXPECT_EQ(g.reconfigs_per_invocation, w.reconfigs_per_invocation) << what;
  EXPECT_EQ(g.amortized_reconfigs, w.amortized_reconfigs) << what;
}

/// Every block under both fine mappers, every reconfiguration policy, 1
/// and 3 lanes, and three fabric sizes: the default, one that splits most
/// blocks into many partitions, and one narrower than a divider (so a
/// block with a division throws).
void expect_fine_mappings_match_oracle(const Dfg& dfg,
                                       const std::string& what) {
  const platform::MemoryModel memory;
  for (const auto mapper : {platform::FineMapper::kFigure3,
                            platform::FineMapper::kListPacking}) {
    for (const auto policy : {platform::ReconfigPolicy::kNone,
                              platform::ReconfigPolicy::kSwitchOnly,
                              platform::ReconfigPolicy::kPerPartition,
                              platform::ReconfigPolicy::kAmortizedOnce}) {
      for (const int lanes : {1, 3}) {
        for (const double area : {1500.0, 130.0, 100.0}) {
          platform::FpgaModel fpga;
          fpga.mapper = mapper;
          fpga.reconfig_policy = policy;
          fpga.parallel_lanes = lanes;
          fpga.usable_area = area;
          const std::string where =
              what + " mapper " + std::to_string(static_cast<int>(mapper)) +
              " policy " + std::to_string(static_cast<int>(policy)) +
              " lanes " + std::to_string(lanes) + " area " +
              std::to_string(area);
          expect_same_outcome(
              outcome_of([&] {
                return finegrain::map_block_to_fpga(dfg, fpga, memory);
              }),
              outcome_of([&] {
                return oracle::map_block_to_fpga(dfg, fpga, memory);
              }),
              where);
        }
      }
    }
  }
  // The counting sort's level buckets are the old per-level occupancy.
  const finegrain::LevelOrder order = finegrain::level_order(dfg);
  const std::vector<int> occupancy = oracle::level_occupancy(dfg);
  ASSERT_EQ(order.level_start.size(), occupancy.size() + 1) << what;
  for (std::size_t level = 1; level < occupancy.size(); ++level) {
    EXPECT_EQ(order.level_start[level + 1] - order.level_start[level],
              occupancy[level])
        << what << " level " << level;
  }
}

void expect_cdfg_matches_oracle(const Cdfg& cdfg, const std::string& what) {
  expect_loops_match_oracle(cdfg, what);
  for (BlockId b = 0; b < cdfg.size(); ++b) {
    expect_fine_mappings_match_oracle(cdfg.block(b).dfg,
                                      what + " block " + std::to_string(b));
  }
}

void expect_program_matches_oracle(const ir::TacProgram& tac,
                                   const std::string& what) {
  const Cdfg got = ir::build_cdfg(tac);
  const Cdfg want = oracle::build_cdfg(tac);
  expect_same_cdfg(got, want, what);
  expect_cdfg_matches_oracle(got, what);
}

// ---- seeded programs ----------------------------------------------------

/// perfbench's fuzz strata: statements, loop nest, helper functions.
struct Stratum {
  int statements;
  int loop_nest;
  int functions;
};
constexpr Stratum kStrata[] = {{6, 1, 1}, {12, 2, 2}, {18, 2, 2},
                               {24, 3, 2}};

class FrontendOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(FrontendOracleProperty, FuzzProgramsMatchOracle) {
  const int stratum = GetParam();
  synth::FuzzConfig config;
  config.statements = kStrata[stratum].statements;
  config.max_loop_nest = kStrata[stratum].loop_nest;
  config.functions = kStrata[stratum].functions;
  int compiled = 0;
  for (std::uint64_t seed = 1; compiled < 3 && seed <= 40; ++seed) {
    config.seed = seed * 7919 + static_cast<std::uint64_t>(stratum);
    std::optional<ir::TacProgram> tac;
    try {
      tac = minic::compile(synth::generate_minic_program(config), "gen");
    } catch (const Error&) {
      continue;  // the fuzzer may draw a program the front-end rejects
    }
    ++compiled;
    expect_program_matches_oracle(
        *tac, "stratum " + std::to_string(stratum) + " seed " +
                  std::to_string(config.seed));
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(compiled, 3);
}

INSTANTIATE_TEST_SUITE_P(Strata, FrontendOracleProperty,
                         ::testing::Range(0, 4));

TEST(FrontendOracleTest, BuiltInProgramsMatchOracle) {
  expect_program_matches_oracle(
      minic::compile(workloads::fir_source(64), "fir"), "fir");
  expect_program_matches_oracle(
      minic::compile(workloads::sobel_source(16, 16), "sobel"), "sobel");
  expect_program_matches_oracle(
      minic::compile(workloads::ofdm_source(2), "ofdm"), "ofdm");
  expect_program_matches_oracle(
      minic::compile(workloads::jpeg_source(16, 16), "jpeg"), "jpeg");
}

TEST(FrontendOracleTest, PaperModelsMatchOracle) {
  const workloads::PaperApp ofdm = workloads::build_ofdm_model();
  expect_cdfg_matches_oracle(ofdm.cdfg, "ofdm model");
  const workloads::PaperApp jpeg = workloads::build_jpeg_model();
  expect_cdfg_matches_oracle(jpeg.cdfg, "jpeg model");
}

TEST(FrontendOracleTest, GeneratedDfgsMatchOracle) {
  for (const int width : {1, 3, 12}) {
    synth::DfgGenConfig config;
    config.alu_ops = 40;
    config.mul_ops = 10;
    config.div_ops = 2;
    config.target_width = width;
    config.seed = static_cast<std::uint64_t>(width);
    expect_fine_mappings_match_oracle(synth::generate_dfg(config),
                                      "width " + std::to_string(width));
  }
}

/// An operation wider than A_FPGA throws, with the oracle's message,
/// under either mapper.
TEST(FrontendOracleTest, OpWiderThanAreaThrowsOracleMessage) {
  Dfg dfg;
  const NodeId a = dfg.add_node(OpKind::kInput, {}, "a");
  const NodeId sum = dfg.add_node(OpKind::kAdd, {a, a});
  dfg.add_node(OpKind::kDiv, {sum, a});
  const platform::MemoryModel memory;
  for (const auto mapper : {platform::FineMapper::kFigure3,
                            platform::FineMapper::kListPacking}) {
    platform::FpgaModel fpga;
    fpga.mapper = mapper;
    fpga.usable_area = 100.0;
    const Outcome got = outcome_of(
        [&] { return finegrain::map_block_to_fpga(dfg, fpga, memory); });
    const Outcome want = outcome_of(
        [&] { return oracle::map_block_to_fpga(dfg, fpga, memory); });
    EXPECT_FALSE(got.mapping.has_value());
    EXPECT_NE(got.error.find("exceeds A_FPGA = 100"), std::string::npos)
        << got.error;
    EXPECT_EQ(got.error, want.error);
  }
}

// ---- hand-built control flow --------------------------------------------

/// Builds TAC by hand: `blocks` empty blocks named b0.., registers
/// r0..r(regs-1) and one 8-word array "buf".
class TacBuilder {
 public:
  TacBuilder(int regs, int blocks) {
    tac_.name = "hand";
    tac_.num_regs = regs;
    for (int r = 0; r < regs; ++r) {
      tac_.reg_names.push_back(r % 2 == 0 ? "r" + std::to_string(r) : "");
    }
    ir::ArraySymbol buf;
    buf.name = "buf";
    buf.size = 8;
    tac_.arrays.push_back(buf);
    for (int b = 0; b < blocks; ++b) {
      ir::TacBlock block;
      block.id = b;
      block.name = "b" + std::to_string(b);
      tac_.blocks.push_back(block);
    }
    tac_.entry = 0;
  }

  TacBuilder& konst(int b, int dst, std::int64_t imm) {
    ir::TacInstr instr;
    instr.op = OpKind::kConst;
    instr.dst = dst;
    instr.imm = imm;
    return push(b, instr);
  }
  TacBuilder& op(int b, OpKind kind, int dst, int src1, int src2 = -1) {
    ir::TacInstr instr;
    instr.op = kind;
    instr.dst = dst;
    instr.src1 = src1;
    instr.src2 = src2;
    return push(b, instr);
  }
  TacBuilder& load(int b, int dst, int index) {
    ir::TacInstr instr;
    instr.op = OpKind::kLoad;
    instr.dst = dst;
    instr.src1 = index;
    instr.array = 0;
    return push(b, instr);
  }
  TacBuilder& store(int b, int index, int value) {
    ir::TacInstr instr;
    instr.op = OpKind::kStore;
    instr.src1 = index;
    instr.src2 = value;
    instr.array = 0;
    return push(b, instr);
  }
  TacBuilder& jmp(int b, BlockId to) {
    tac_.blocks[b].term.kind = ir::Terminator::Kind::kJmp;
    tac_.blocks[b].term.if_true = to;
    return *this;
  }
  TacBuilder& br(int b, int cond, BlockId if_true, BlockId if_false) {
    tac_.blocks[b].term.kind = ir::Terminator::Kind::kBr;
    tac_.blocks[b].term.cond_reg = cond;
    tac_.blocks[b].term.if_true = if_true;
    tac_.blocks[b].term.if_false = if_false;
    return *this;
  }
  TacBuilder& ret(int b, int reg = -1) {
    tac_.blocks[b].term.kind = ir::Terminator::Kind::kRet;
    tac_.blocks[b].term.ret_reg = reg;
    return *this;
  }
  const ir::TacProgram& tac() const { return tac_; }

 private:
  TacBuilder& push(int b, const ir::TacInstr& instr) {
    tac_.blocks[b].body.push_back(instr);
    return *this;
  }
  ir::TacProgram tac_;
};

/// Entry branches into both blocks of a two-block cycle: no block of the
/// cycle dominates the other, so there is no natural loop.
TEST(FrontendOracleTest, IrreducibleCycleHasNoLoop) {
  TacBuilder b(6, 4);
  b.konst(0, 0, 1).load(0, 1, 0).br(0, 0, 1, 2);
  b.op(1, OpKind::kAdd, 2, 2, 1).op(1, OpKind::kCmpLt, 3, 2, 0).br(1, 3, 2, 3);
  b.op(2, OpKind::kMul, 4, 2, 1).op(2, OpKind::kCopy, 2, 4).jmp(2, 1);
  b.store(3, 0, 2).ret(3, 4);
  expect_program_matches_oracle(b.tac(), "irreducible");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  EXPECT_TRUE(cdfg.loops().empty());
  EXPECT_EQ(cdfg.immediate_dominators(),
            (std::vector<BlockId>{0, 0, 0, 1}));
}

/// A self-loop whose block reads its own register around the back edge.
TEST(FrontendOracleTest, SelfLoopMatchesOracle) {
  TacBuilder b(4, 3);
  b.konst(0, 0, 0).konst(0, 1, 10).jmp(0, 1);
  b.op(1, OpKind::kAdd, 0, 0, 1).op(1, OpKind::kCmpLt, 2, 0, 1).br(1, 2, 1, 2);
  b.ret(2, 0);
  expect_program_matches_oracle(b.tac(), "self loop");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  ASSERT_EQ(cdfg.loops().size(), 1u);
  EXPECT_EQ(cdfg.loops()[0].body, (std::vector<BlockId>{1}));
  EXPECT_EQ(cdfg.block(1).loop_depth, 1);
}

/// Two latches back into one header count as one loop level, and an
/// inner self-loop on one latch nests inside it.
TEST(FrontendOracleTest, TwoLatchesSharingHeaderCountOnce) {
  TacBuilder b(6, 5);
  b.konst(0, 0, 0).konst(0, 1, 3).jmp(0, 1);
  b.op(1, OpKind::kCmpLt, 2, 0, 1).br(1, 2, 2, 3);
  b.op(2, OpKind::kAdd, 0, 0, 1).op(2, OpKind::kCmpEq, 3, 0, 1).br(2, 3, 2, 1);
  b.op(3, OpKind::kSub, 0, 0, 1).op(3, OpKind::kCmpGt, 4, 0, 1).br(3, 4, 1, 4);
  b.ret(4, 0);
  expect_program_matches_oracle(b.tac(), "two latches");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  ASSERT_EQ(cdfg.loops().size(), 3u);  // 2->1, 3->1, 2->2
  EXPECT_EQ(cdfg.block(1).loop_depth, 1);
  EXPECT_EQ(cdfg.block(2).loop_depth, 2);
  EXPECT_EQ(cdfg.block(3).loop_depth, 1);
  EXPECT_EQ(cdfg.block(4).loop_depth, 0);
}

/// Unreachable blocks: one jumps into the loop's latch (an unreachable
/// predecessor inside the loop), one spins on itself. Neither forms or
/// joins a loop, but their registers still count as consumed.
TEST(FrontendOracleTest, UnreachableBlocksMatchOracle) {
  TacBuilder b(6, 6);
  b.konst(0, 0, 0).konst(0, 1, 4).jmp(0, 1);
  b.op(1, OpKind::kCmpLt, 2, 0, 1).br(1, 2, 2, 3);
  b.op(2, OpKind::kAdd, 0, 0, 5).jmp(2, 1);
  b.ret(3, 0);
  b.konst(4, 5, 9).op(4, OpKind::kAdd, 3, 4, 5).jmp(4, 2);
  b.op(5, OpKind::kXor, 4, 3, 1).jmp(5, 5);
  expect_program_matches_oracle(b.tac(), "unreachable");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  ASSERT_EQ(cdfg.loops().size(), 1u);
  EXPECT_EQ(cdfg.loops()[0].body, (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(cdfg.block(4).loop_depth, 0);
  EXPECT_EQ(cdfg.block(5).loop_depth, 0);
  const std::vector<BlockId> idom = cdfg.immediate_dominators();
  EXPECT_EQ(idom[4], ir::kNoBlock);
  EXPECT_EQ(idom[5], ir::kNoBlock);
}

/// r3 is read at the top of the header and rewritten at its bottom, and
/// r6 is read and rewritten by one header instruction; no other block
/// reads either, so only the back edge makes them live-out. r4 is written
/// and read inside the latch only, so it gets no output marker.
TEST(FrontendOracleTest, RegisterConsumedByOwnBlockAroundBackEdge) {
  TacBuilder b(7, 4);
  b.konst(0, 0, 0).konst(0, 1, 5).konst(0, 3, 1).konst(0, 6, 2).jmp(0, 1);
  b.op(1, OpKind::kMul, 2, 3, 1).op(1, OpKind::kAdd, 3, 3, 0)
      .op(1, OpKind::kAdd, 6, 6, 1).op(1, OpKind::kCmpLt, 5, 0, 1)
      .br(1, 5, 2, 3);
  b.op(2, OpKind::kAdd, 4, 0, 1).op(2, OpKind::kSub, 0, 4, 1)
      .store(2, 0, 4).op(2, OpKind::kAdd, 0, 0, 1).jmp(2, 1);
  b.store(3, 0, 2).ret(3);
  expect_program_matches_oracle(b.tac(), "own block");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  // Header: r2 (read by b3), r3 and r6 (read by the header itself), but
  // not r5 (its condition, computed locally and never exposed).
  EXPECT_EQ(cdfg.block(1).dfg.live_out_count(), 3);
  // Latch: only r0 (read by the header) is live-out, not r4.
  EXPECT_EQ(cdfg.block(2).dfg.live_out_count(), 1);
}

/// The entry block itself heads a loop.
TEST(FrontendOracleTest, EntryHeadedLoopMatchesOracle) {
  TacBuilder b(3, 2);
  b.op(0, OpKind::kAdd, 0, 0, 1).op(0, OpKind::kCmpLt, 2, 0, 1).br(0, 2, 0, 1);
  b.ret(1, 0);
  expect_program_matches_oracle(b.tac(), "entry loop");
  const Cdfg cdfg = ir::build_cdfg(b.tac());
  ASSERT_EQ(cdfg.loops().size(), 1u);
  EXPECT_EQ(cdfg.loops()[0].header, 0);
  EXPECT_EQ(cdfg.block(0).loop_depth, 1);
}

}  // namespace
}  // namespace amdrel
