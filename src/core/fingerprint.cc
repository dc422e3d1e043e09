#include "core/fingerprint.h"

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

// An empty buffer for one keyed input's words, kept per thread so a
// digest allocates nothing once its thread has made one: the sweep
// fingerprints the options of every cache cell.
std::vector<std::uint64_t>& digest_words() {
  thread_local std::vector<std::uint64_t> words;
  words.clear();
  return words;
}

// The digest of one keyed input: the algorithm version, the input's
// tag, then its words.
Fingerprint keyed_digest(std::string_view tag,
                         const std::vector<std::uint64_t>& words) {
  Fingerprinter h;
  h.mix(static_cast<std::uint64_t>(kFingerprintAlgorithmVersion));
  h.mix(tag);
  for (const std::uint64_t word : words) h.mix(word);
  return h.digest();
}

}  // namespace

void append_key(std::vector<std::uint64_t>& out,
                const platform::FpgaModel& fpga) {
  append_words(out, fpga.usable_area, fpga.reconfig_cycles, fpga.parallel_lanes,
               fpga.invocation_overhead_cycles, fpga.reconfig_policy,
               fpga.mapper, fpga.area_alu, fpga.area_mul, fpga.area_div,
               fpga.area_mem, fpga.area_copy, fpga.delay_alu, fpga.delay_mul,
               fpga.delay_div, fpga.delay_mem, fpga.delay_copy);
}

void append_key(std::vector<std::uint64_t>& out,
                const platform::CgcModel& cgc) {
  append_words(out, cgc.count, cgc.rows, cgc.cols, cgc.fpga_clock_ratio,
               cgc.enable_chaining, cgc.mem_ports, cgc.mem_access_cgc_cycles,
               cgc.dma_memory);
}

void append_key(std::vector<std::uint64_t>& out,
                const platform::MemoryModel& memory) {
  append_words(out, memory.transfer_cycles_per_word,
               memory.partition_boundary_cycles_per_word);
}

void append_key(std::vector<std::uint64_t>& out,
                const analysis::AnalysisOptions& analysis) {
  append_words(out, analysis.weights.alu, analysis.weights.mul,
               analysis.weights.div, analysis.weights.mem,
               analysis.loops_only, analysis.min_exec_freq);
}

void append_search_knobs(std::vector<std::uint64_t>& out,
                         const MethodologyOptions& options) {
  append_words(out, options.random_seed, options.stop_when_met,
               options.skip_unprofitable, options.exhaustive_max_kernels,
               options.anneal_iterations);
}

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
    h.mix(key_word(node.imm));
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
  std::vector<std::uint64_t>& words = digest_words();
  append_key(words, platform.fpga);
  append_key(words, platform.cgc);
  append_key(words, platform.memory);
  return keyed_digest("platform", words);
}

Fingerprint fingerprint(const MethodologyOptions& options) {
  std::vector<std::uint64_t>& words = digest_words();
  append_key(words, options.analysis);
  const CostObjective& objective = options.cost.objective;
  const EnergyModel& energy = objective.energy;
  append_words(words, options.strategy, options.ordering, objective.kind,
               energy.fpga_alu_pj, energy.fpga_mul_pj, energy.fpga_div_pj,
               energy.fpga_mem_pj, energy.cgc_alu_pj, energy.cgc_mul_pj,
               energy.cgc_mem_pj, energy.reconfiguration_pj,
               energy.transfer_pj_per_word, energy.spill_pj_per_word,
               objective.cycle_weight, objective.energy_weight,
               options.cost.energy_budget_pj);
  // v3: the reconfiguration model prices moved sets, so two runs that
  // differ only here must never alias a cache cell.
  const platform::ReconfigModel& reconfig = options.cost.reconfig;
  append_words(words, reconfig.bitstream_cycles_per_unit,
               reconfig.prefetch_overlap, reconfig.floorplan_cost_per_unit,
               reconfig.regions);
  append_search_knobs(words, options);
  return keyed_digest("options", words);
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
  h.mix(key_word(constraint));
  return h.digest();
}

}  // namespace amdrel::core
