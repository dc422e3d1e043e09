#pragma once

// Computations that only tests use, kept out of the library.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "coarsegrain/cgc_mapper.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "finegrain/fpga_mapper.h"
#include "ir/cdfg.h"
#include "ir/dfg.h"
#include "ir/profile.h"
#include "platform/platform.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::test {

/// Applies the paper's routability guidance: only `fraction` (typically
/// 0.70) of a device's raw area is available for operation mapping.
inline platform::FpgaModel from_device_area(double device_area,
                                            double fraction = 0.70) {
  platform::FpgaModel model;
  model.usable_area = device_area * fraction;
  return model;
}

/// One edit of one field of platform::FpgaModel, CgcModel or
/// MemoryModel, away from make_paper_platform(1500, 2)'s value.
struct PlatformFieldEdit {
  const char* field;
  bool cgc;  ///< a CgcModel field; otherwise an FPGA or memory field
  void (*edit)(platform::Platform&);
};

/// An edit for every field of the three platform models, to a value the
/// built-in apps still map with. Every field keys the sweep cache and
/// the sweep's shared mapper tables and must price something, so the
/// tests that pin both walk this list: a new model field joins it, with
/// a value that changes some price
/// (MapperViewTest.EveryPlatformFieldPricesSomething), and
/// scripts/check_model_fields.py checks that it did.
inline const std::vector<PlatformFieldEdit>& platform_field_edits() {
  using platform::Platform;
  static const std::vector<PlatformFieldEdit> edits = {
      {"fpga.usable_area", false,
       [](Platform& p) { p.fpga.usable_area = 700; }},
      {"fpga.reconfig_cycles", false,
       [](Platform& p) { p.fpga.reconfig_cycles = 9; }},
      {"fpga.parallel_lanes", false,
       [](Platform& p) { p.fpga.parallel_lanes = 2; }},
      {"fpga.invocation_overhead_cycles", false,
       [](Platform& p) { p.fpga.invocation_overhead_cycles = 3; }},
      {"fpga.reconfig_policy", false,
       [](Platform& p) {
         p.fpga.reconfig_policy = platform::ReconfigPolicy::kPerPartition;
       }},
      {"fpga.mapper", false,
       [](Platform& p) { p.fpga.mapper = platform::FineMapper::kListPacking; }},
      {"fpga.area_alu", false, [](Platform& p) { p.fpga.area_alu = 13; }},
      {"fpga.area_mul", false, [](Platform& p) { p.fpga.area_mul = 61; }},
      {"fpga.area_div", false, [](Platform& p) { p.fpga.area_div = 240; }},
      {"fpga.area_mem", false, [](Platform& p) { p.fpga.area_mem = 11; }},
      {"fpga.area_copy", false, [](Platform& p) { p.fpga.area_copy = 200; }},
      {"fpga.delay_alu", false, [](Platform& p) { p.fpga.delay_alu = 2; }},
      {"fpga.delay_mul", false, [](Platform& p) { p.fpga.delay_mul = 3; }},
      {"fpga.delay_div", false, [](Platform& p) { p.fpga.delay_div = 9; }},
      {"fpga.delay_mem", false, [](Platform& p) { p.fpga.delay_mem = 3; }},
      {"fpga.delay_copy", false, [](Platform& p) { p.fpga.delay_copy = 1; }},
      {"cgc.count", true, [](Platform& p) { p.cgc.count = 3; }},
      {"cgc.rows", true, [](Platform& p) { p.cgc.rows = 3; }},
      {"cgc.cols", true, [](Platform& p) { p.cgc.cols = 3; }},
      {"cgc.fpga_clock_ratio", true,
       [](Platform& p) { p.cgc.fpga_clock_ratio = 2; }},
      {"cgc.enable_chaining", true,
       [](Platform& p) { p.cgc.enable_chaining = false; }},
      {"cgc.mem_ports", true, [](Platform& p) { p.cgc.mem_ports = 1; }},
      {"cgc.mem_access_cgc_cycles", true,
       [](Platform& p) { p.cgc.mem_access_cgc_cycles = 9; }},
      {"cgc.dma_memory", true, [](Platform& p) { p.cgc.dma_memory = false; }},
      {"memory.transfer_cycles_per_word", false,
       [](Platform& p) { p.memory.transfer_cycles_per_word = 5; }},
      {"memory.partition_boundary_cycles_per_word", false,
       [](Platform& p) { p.memory.partition_boundary_cycles_per_word = 7; }},
  };
  return edits;
}

/// Operations of an op mix that occupy hardware: every class but the
/// structural meta nodes.
inline std::int64_t total_schedulable(const ir::OpMix& mix) {
  return mix.alu + mix.mul + mix.div + mix.mem;
}

/// Deterministic pseudo-random FIR input samples in [-1024, 1024), from
/// the xorshift generator of workloads::random_bits and random_pixels.
inline std::vector<std::int32_t> random_samples(std::size_t count,
                                                std::uint64_t seed) {
  std::uint64_t state = seed | 1;
  std::vector<std::int32_t> samples(count);
  for (auto& s : samples) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    s = static_cast<std::int32_t>(state % 2048) - 1024;
  }
  return samples;
}

/// Bit-exact C++ references for the FIR and Sobel MiniC workloads
/// (workloads/minic_sources.h), with the interpreter's 32-bit
/// wrap-around arithmetic.
inline std::int32_t wrap32(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

struct FirGolden {
  std::vector<std::int32_t> filtered;
  std::int32_t checksum = 0;
};

/// `samples` holds n+16 input samples.
inline FirGolden golden_fir(const std::vector<std::int32_t>& samples,
                            int n) {
  static constexpr std::int32_t kTaps[16] = {
      -2, -5, 3, 17, 38, 62, 84, 97, 97, 84, 62, 38, 17, 3, -5, -2};
  require(static_cast<int>(samples.size()) >= n + 16,
          "golden_fir: not enough samples");
  FirGolden out;
  out.filtered.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    std::int32_t acc = 0;
    for (int t = 0; t < 16; ++t) {
      acc = wrap32(std::int64_t{acc} +
                   wrap32(std::int64_t{samples[i + t]} * kTaps[t]));
    }
    out.filtered[i] = acc >> 8;
  }
  for (int i = 0; i < n; ++i) out.checksum ^= out.filtered[i];
  return out;
}

struct SobelGolden {
  std::vector<std::int32_t> edges;
  std::int32_t checksum = 0;
};

/// `image` holds width*height pixels (0..255).
inline SobelGolden golden_sobel(const std::vector<std::int32_t>& image,
                                int width, int height) {
  require(width >= 3 && height >= 3, "golden_sobel: image too small");
  require(static_cast<int>(image.size()) >= width * height,
          "golden_sobel: image too small for dimensions");
  SobelGolden out;
  out.edges.assign(static_cast<std::size_t>(width) * height, 0);
  for (int y = 1; y < height - 1; ++y) {
    for (int x = 1; x < width - 1; ++x) {
      const int up = (y - 1) * width + x;
      const int mid = y * width + x;
      const int down = (y + 1) * width + x;
      std::int32_t gx = image[up + 1] - image[up - 1] +
                        2 * image[mid + 1] - 2 * image[mid - 1] +
                        image[down + 1] - image[down - 1];
      std::int32_t gy = image[down - 1] + 2 * image[down] + image[down + 1] -
                        image[up - 1] - 2 * image[up] - image[up + 1];
      if (gx < 0) gx = -gx;
      if (gy < 0) gy = -gy;
      std::int32_t mag = gx + gy;
      if (mag > 255) mag = 255;
      out.edges[mid] = mag;
    }
  }
  for (const std::int32_t v : out.edges) {
    out.checksum = wrap32(std::int64_t{out.checksum} + v);
  }
  return out;
}

/// Compute slots usable per CGC cycle over the whole data-path.
inline int slots_per_cycle(const platform::CgcModel& cgc) {
  return cgc.count * cgc.rows * cgc.cols;
}

/// Largest ASAP level of any schedulable node (0 for an empty graph).
inline int max_asap_level(const ir::Dfg& dfg) {
  const std::vector<int> levels = dfg.asap_levels();
  return levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
}

/// Which blocks the mapper has scheduled on the CGC so far. Walks
/// resolve coarse prices lazily, at a block's first move or proposal, so
/// two runs that priced the same walk leave the same set.
inline std::vector<bool> scheduled_blocks(
    const core::HybridMapper& mapper) {
  std::vector<bool> scheduled;
  for (const auto& coarse : mapper.state().coarse) {
    scheduled.push_back(coarse.has_value());
  }
  return scheduled;
}

/// Fine-grain mapping of a whole application: one block mapping per CDFG
/// block, in block-id order.
inline std::vector<finegrain::FpgaBlockMapping> map_cdfg_to_fpga(
    const ir::Cdfg& cdfg, const platform::FpgaModel& fpga,
    const platform::MemoryModel& memory) {
  std::vector<finegrain::FpgaBlockMapping> mappings;
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    mappings.push_back(finegrain::map_block_to_fpga(block.dfg, fpga, memory));
  }
  return mappings;
}

/// One block's term of equation (4): t_to_FPGA(BB) * Iter(BB) plus its
/// amortized reconfiguration charge.
inline std::int64_t fine_block_cycles(
    const finegrain::FpgaBlockMapping& mapping, std::uint64_t iterations,
    const platform::FpgaModel& fpga) {
  return mapping.cycles_per_invocation(fpga) *
             static_cast<std::int64_t>(iterations) +
         mapping.amortized_reconfigs * fpga.reconfig_cycles;
}

/// Equation (4) restricted to the blocks where include[id] is true: the
/// part of the application that stays on the fine-grain hardware.
inline std::int64_t masked_fpga_total_cycles(
    const std::vector<finegrain::FpgaBlockMapping>& mappings,
    const ir::ProfileData& profile, const platform::FpgaModel& fpga,
    const std::vector<bool>& include) {
  require(include.size() == mappings.size(),
          "masked_fpga_total_cycles: include mask size mismatch");
  std::int64_t total = 0;
  for (std::size_t id = 0; id < mappings.size(); ++id) {
    if (!include[id]) continue;
    total += fine_block_cycles(
        mappings[id], profile.count(static_cast<ir::BlockId>(id)), fpga);
  }
  return total;
}

/// Equation (3) of the paper for a set of moved blocks:
/// t_coarse = sum over moved blocks of t_to_coarse(BB_i) * Iter(BB_i),
/// in FPGA clock cycles.
inline std::int64_t cgc_total_cycles(
    const std::vector<coarsegrain::CgcBlockMapping>& mappings,
    const std::vector<ir::BlockId>& blocks, const ir::ProfileData& profile) {
  std::int64_t total = 0;
  for (ir::BlockId id : blocks) {
    require(id >= 0 && id < static_cast<ir::BlockId>(mappings.size()),
            "cgc_total_cycles: block id out of range");
    total += mappings[static_cast<std::size_t>(id)].cycles_per_invocation_fpga *
             static_cast<std::int64_t>(profile.count(id));
  }
  return total;
}

/// Prices the split where `moved` blocks run on the CGC data-path and
/// everything else on the fine-grain hardware (equations (2)-(4)), from
/// scratch: the oracle IncrementalSplit's O(1) deltas are checked
/// against. Throws Error for an out-of-range block or one moved twice.
inline core::SplitCost evaluate(core::HybridMapper& mapper,
                                const ir::ProfileData& profile,
                                const std::vector<ir::BlockId>& moved) {
  const ir::BlockId blocks = mapper.cdfg().size();
  std::vector<bool> stays_fine(static_cast<std::size_t>(blocks), true);
  for (ir::BlockId block : moved) {
    if (block < 0 || block >= blocks) {
      fail(cat("HybridMapper::evaluate: bad moved block ", block));
    }
    if (!stays_fine[static_cast<std::size_t>(block)]) {
      fail(cat("HybridMapper::evaluate: block ", block, " moved twice"));
    }
    stays_fine[static_cast<std::size_t>(block)] = false;
  }
  core::SplitCost cost;
  for (ir::BlockId block = 0; block < blocks; ++block) {
    if (!stays_fine[static_cast<std::size_t>(block)]) continue;
    cost.t_fpga += fine_block_cycles(mapper.fine(block), profile.count(block),
                                     mapper.platform().fpga);
  }
  for (ir::BlockId block : moved) {
    const auto iterations = static_cast<std::int64_t>(profile.count(block));
    cost.t_coarse += mapper.coarse_cycles_per_invocation(block) * iterations;
    cost.t_comm += mapper.comm_cycles_per_invocation(block) * iterations;
  }
  return cost;
}

/// Moves every CGC-eligible block (not only loop kernels) to the
/// coarse-grain data-path; the "all-coarse" end of the design space.
inline core::PartitionReport all_coarse_split(
    const ir::Cdfg& cdfg, const ir::ProfileData& profile,
    const platform::Platform& platform,
    std::int64_t timing_constraint_cycles) {
  core::PartitionReport report;
  report.app = cdfg.name();
  report.timing_constraint = timing_constraint_cycles;

  core::HybridMapper mapper(cdfg, platform);
  report.initial_cycles = mapper.all_fine_cycles(profile);

  std::vector<ir::BlockId> moved;
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    if (profile.count(block.id) == 0) continue;
    if (!mapper.cgc_eligible(block.id)) continue;
    if (total_schedulable(block.dfg.op_mix()) == 0) continue;
    moved.push_back(block.id);
  }
  report.moved = moved;
  report.cost = evaluate(mapper, profile, moved);
  report.final_cycles = report.cost.total();
  report.cycles_in_cgc = report.cost.t_coarse;
  report.met = report.final_cycles <= timing_constraint_cycles;
  report.engine_iterations = static_cast<int>(moved.size());
  return report;
}

}  // namespace amdrel::test
