#include "core/fingerprint.h"

#include "core/json_lines.h"

namespace amdrel::core {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kXxhPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kXxhPrime2 = 0xc2b2ae3d27d4eb4fULL;

std::uint64_t rotl(std::uint64_t value, int bits) {
  return (value << bits) | (value >> (64 - bits));
}

// Murmur3's 64-bit finalizer: full avalanche, so single-bit input
// differences flip about half of the digest bits.
std::uint64_t avalanche(std::uint64_t value) {
  value ^= value >> 33;
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  value *= 0xc4ceb9fe1a85ec53ULL;
  value ^= value >> 33;
  return value;
}

}  // namespace

void append_part(std::string& out, const Fingerprint& fp) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const std::uint64_t lane : {fp.hi, fp.lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHex[(lane >> shift) & 0xf]);
    }
  }
}

std::optional<Fingerprint> Fingerprint::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  Fingerprint fp;
  for (int half = 0; half < 2; ++half) {
    std::uint64_t value = 0;
    for (int i = 0; i < 16; ++i) {
      const char c = text[static_cast<std::size_t>(half * 16 + i)];
      std::uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
      value = (value << 4) | digit;
    }
    (half == 0 ? fp.hi : fp.lo) = value;
  }
  return fp;
}

void Fingerprinter::mix(std::uint64_t value) {
  fnv_ = (fnv_ ^ value) * kFnvPrime;
  xxh_ = rotl(xxh_ + value * kXxhPrime2, 31) * kXxhPrime1;
}

void Fingerprinter::mix_double(double value) {
  mix(static_cast<std::uint64_t>(jsonl::double_to_bits(value)));
}

void Fingerprinter::mix(std::string_view text) {
  // Length prefix keeps concatenated strings unambiguous ("ab","c" vs
  // "a","bc"); bytes are packed little-endian by explicit shifts, so the
  // digest does not depend on host endianness.
  mix(static_cast<std::uint64_t>(text.size()));
  std::uint64_t word = 0;
  int filled = 0;
  for (const char c : text) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
            << (8 * filled);
    if (++filled == 8) {
      mix(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled) mix(word);
}

Fingerprint Fingerprinter::digest() const {
  // Cross-feed the lanes before the avalanche so each output half
  // depends on both accumulators.
  Fingerprint fp;
  fp.hi = avalanche(fnv_ ^ rotl(xxh_, 32));
  fp.lo = avalanche(xxh_ + rotl(fnv_, 17));
  return fp;
}

Fingerprint fingerprint(const ir::Dfg& dfg) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix("dfg");
  h.mix(static_cast<std::uint64_t>(dfg.size()));
  for (const ir::Dfg::Node& node : dfg.nodes()) {
    h.mix(static_cast<std::uint64_t>(node.kind));
    h.mix(static_cast<std::uint64_t>(node.bit_width));
    h.mix_i64(node.imm);
    h.mix(static_cast<std::uint64_t>(node.operand_count));
    for (const ir::NodeId operand : node.operands()) {
      h.mix(static_cast<std::uint64_t>(operand));
    }
  }
  return h.digest();
}

Fingerprint fingerprint(const ir::Cdfg& cdfg) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix("cdfg");
  h.mix(cdfg.name());
  h.mix(static_cast<std::uint64_t>(cdfg.entry()));
  h.mix(static_cast<std::uint64_t>(cdfg.size()));
  for (ir::BlockId block = 0; block < cdfg.size(); ++block) {
    const ir::BasicBlock& bb = cdfg.block(block);
    h.mix(bb.name);
    const Fingerprint dfg = fingerprint(bb.dfg);
    h.mix(dfg.hi);
    h.mix(dfg.lo);
    const std::vector<ir::BlockId>& succs = cdfg.successors(block);
    h.mix(static_cast<std::uint64_t>(succs.size()));
    for (const ir::BlockId succ : succs) {
      h.mix(static_cast<std::uint64_t>(succ));
    }
  }
  return h.digest();
}

Fingerprint fingerprint(const ir::ProfileData& profile) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix("profile");
  h.mix(static_cast<std::uint64_t>(profile.recorded_count()));
  profile.for_each_recorded([&h](ir::BlockId block, std::uint64_t count) {
    h.mix(static_cast<std::uint64_t>(block));
    h.mix(count);
  });
  return h.digest();
}

Fingerprint fingerprint(const platform::Platform& platform) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix("platform");
  const platform::FpgaModel& fpga = platform.fpga;
  h.mix_double(fpga.usable_area);
  h.mix_i64(fpga.reconfig_cycles);
  h.mix(static_cast<std::uint64_t>(fpga.parallel_lanes));
  h.mix_i64(fpga.invocation_overhead_cycles);
  h.mix(static_cast<std::uint64_t>(fpga.reconfig_policy));
  h.mix(static_cast<std::uint64_t>(fpga.mapper));
  h.mix_double(fpga.clock_period_ns);
  h.mix_double(fpga.area_alu);
  h.mix_double(fpga.area_mul);
  h.mix_double(fpga.area_div);
  h.mix_double(fpga.area_mem);
  h.mix_double(fpga.area_copy);
  h.mix_i64(fpga.delay_alu);
  h.mix_i64(fpga.delay_mul);
  h.mix_i64(fpga.delay_div);
  h.mix_i64(fpga.delay_mem);
  h.mix_i64(fpga.delay_copy);
  const platform::CgcModel& cgc = platform.cgc;
  h.mix(static_cast<std::uint64_t>(cgc.count));
  h.mix(static_cast<std::uint64_t>(cgc.rows));
  h.mix(static_cast<std::uint64_t>(cgc.cols));
  h.mix(static_cast<std::uint64_t>(cgc.fpga_clock_ratio));
  h.mix(static_cast<std::uint64_t>(cgc.enable_chaining));
  h.mix(static_cast<std::uint64_t>(cgc.mem_ports));
  h.mix_i64(cgc.mem_access_cgc_cycles);
  h.mix(static_cast<std::uint64_t>(cgc.dma_memory));
  h.mix(static_cast<std::uint64_t>(cgc.register_bank_size));
  const platform::MemoryModel& memory = platform.memory;
  h.mix_i64(memory.transfer_cycles_per_word);
  h.mix_i64(memory.partition_boundary_cycles_per_word);
  return h.digest();
}

Fingerprint fingerprint(const MethodologyOptions& options) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix("options");
  h.mix_i64(options.analysis.weights.alu);
  h.mix_i64(options.analysis.weights.mul);
  h.mix_i64(options.analysis.weights.div);
  h.mix_i64(options.analysis.weights.mem);
  h.mix(static_cast<std::uint64_t>(options.analysis.loops_only));
  h.mix(options.analysis.min_exec_freq);
  h.mix(static_cast<std::uint64_t>(options.strategy));
  h.mix(static_cast<std::uint64_t>(options.ordering));
  const CostObjective& objective = options.cost.objective;
  h.mix(static_cast<std::uint64_t>(objective.kind));
  h.mix_double(objective.energy.fpga_alu_pj);
  h.mix_double(objective.energy.fpga_mul_pj);
  h.mix_double(objective.energy.fpga_div_pj);
  h.mix_double(objective.energy.fpga_mem_pj);
  h.mix_double(objective.energy.cgc_alu_pj);
  h.mix_double(objective.energy.cgc_mul_pj);
  h.mix_double(objective.energy.cgc_mem_pj);
  h.mix_double(objective.energy.reconfiguration_pj);
  h.mix_double(objective.energy.transfer_pj_per_word);
  h.mix_double(objective.energy.spill_pj_per_word);
  h.mix_double(objective.cycle_weight);
  h.mix_double(objective.energy_weight);
  h.mix_double(options.cost.energy_budget_pj);
  // v3: the reconfiguration model prices moved sets, so two runs that
  // differ only here must never alias a cache cell.
  const platform::ReconfigModel& reconfig = options.cost.reconfig;
  h.mix_double(reconfig.bitstream_cycles_per_unit);
  h.mix_double(reconfig.prefetch_overlap);
  h.mix_double(reconfig.floorplan_cost_per_unit);
  h.mix(static_cast<std::uint64_t>(reconfig.regions));
  h.mix(options.random_seed);
  h.mix(static_cast<std::uint64_t>(options.stop_when_met));
  h.mix(static_cast<std::uint64_t>(options.skip_unprofitable));
  h.mix(static_cast<std::uint64_t>(options.exhaustive_max_kernels));
  h.mix(static_cast<std::uint64_t>(options.anneal_iterations));
  return h.digest();
}

Fingerprint app_fingerprint(const ir::Cdfg& cdfg,
                            const ir::ProfileData& profile) {
  Fingerprinter h;
  h.mix("app");
  const Fingerprint c = fingerprint(cdfg);
  const Fingerprint p = fingerprint(profile);
  h.mix(c.hi);
  h.mix(c.lo);
  h.mix(p.hi);
  h.mix(p.lo);
  return h.digest();
}

Fingerprint shard_key(const Fingerprint& app, const Fingerprint& platform) {
  Fingerprinter h;
  h.mix("shard");
  h.mix(app.hi);
  h.mix(app.lo);
  h.mix(platform.hi);
  h.mix(platform.lo);
  return h.digest();
}

Fingerprint cell_key(const Fingerprint& app, const Fingerprint& platform,
                     const MethodologyOptions& options,
                     std::int64_t constraint) {
  Fingerprinter h;
  h.mix("cell");
  h.mix(app.hi);
  h.mix(app.lo);
  h.mix(platform.hi);
  h.mix(platform.lo);
  const Fingerprint o = fingerprint(options);
  h.mix(o.hi);
  h.mix(o.lo);
  h.mix_i64(constraint);
  return h.digest();
}

}  // namespace amdrel::core
