#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/json_lines.h"
#include "core/methodology.h"
#include "core/schema.h"
#include "ir/cdfg.h"
#include "ir/dfg.h"
#include "ir/profile.h"
#include "platform/platform.h"

namespace amdrel::core {

// The fingerprint algorithm version (kFingerprintAlgorithmVersion) lives
// with every other persisted-format constant in core/schema.h. Bump on
// ANY change to what is hashed or how (mixing constants, field order,
// new fields) — persisted caches key results by these fingerprints, so
// an algorithm change must invalidate them, and the golden test pins the
// builtin workloads' digests byte-for-byte.

/// A 128-bit content digest. Two independently-mixed 64-bit lanes keep
/// the collision probability negligible for cache-sized key sets while
/// staying dependency-free (no external hash library).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
  bool operator<(const Fingerprint& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  /// Inverse of append_part's rendering; nullopt unless `text` is
  /// exactly 32 lowercase hex digits (strict: the cache loader rejects
  /// anything else).
  static std::optional<Fingerprint> from_hex(std::string_view text);
};

/// Appends fp's fixed-width lowercase hex ("<hi:16><lo:16>", 32 digits,
/// the on-disk key format of the sweep cache) to `out`: a text::append
/// part, so a cache line renders its key with no temporary string;
/// text::render(fp) gives it as a string.
void append_part(std::string& out, const Fingerprint& fp);

/// The one word encoding of a keyed value, shared by the persisted
/// fingerprints and the in-process memo keys (core::AxisMemo): a double
/// by its bit pattern (jsonl::double_to_bits), an integer, enum or bool
/// by static_cast<std::uint64_t>.
inline std::uint64_t key_word(double value) {
  return static_cast<std::uint64_t>(jsonl::double_to_bits(value));
}
template <typename T, typename = std::enable_if_t<std::is_integral_v<T> ||
                                                  std::is_enum_v<T>>>
constexpr std::uint64_t key_word(T value) {
  return static_cast<std::uint64_t>(value);
}

/// Appends key_word(value) of each value, in order.
template <typename... Values>
void append_words(std::vector<std::uint64_t>& out, Values... values) {
  (out.push_back(key_word(values)), ...);
}

/// The keyed words of one input: every field that can change a result,
/// listed here and nowhere else. fingerprint(Platform) and
/// fingerprint(MethodologyOptions) mix them, and AxisMemo keys its
/// tables by them (fine: FPGA then memory; coarse: CGC; kernel list:
/// analysis), so a new field of one of these types joins its list in
/// core/fingerprint.cc and keys the cache and the memo alike.
void append_key(std::vector<std::uint64_t>& out,
                const platform::FpgaModel& fpga);
void append_key(std::vector<std::uint64_t>& out,
                const platform::CgcModel& cgc);
void append_key(std::vector<std::uint64_t>& out,
                const platform::MemoryModel& memory);
void append_key(std::vector<std::uint64_t>& out,
                const analysis::AnalysisOptions& analysis);

/// The search knobs of `options`, the options a strategy reads besides
/// its kind and the cost objective: seed, early stop, profitability
/// filter, exhaustive limit and annealing iterations. A strategy that
/// reads a new option adds it here, which keys both the cache and the
/// memo's walks.
void append_search_knobs(std::vector<std::uint64_t>& out,
                         const MethodologyOptions& options);

/// Incremental two-lane mixer behind every fingerprint: lane one is
/// FNV-1a over 64-bit words, lane two an xxhash-style rotate-multiply
/// accumulator, both finalized with a murmur-style avalanche. Values are
/// mixed as explicit integers (key_word above; strings length-prefixed
/// byte-wise), so digests are identical across platforms, build types
/// and runs.
class Fingerprinter {
 public:
  void mix(std::uint64_t value);
  void mix(std::string_view text);

  Fingerprint digest() const;

 private:
  std::uint64_t fnv_ = 0xcbf29ce484222325ULL;    // FNV-1a offset basis
  std::uint64_t xxh_ = 0x9e3779b97f4a7c15ULL;    // golden-ratio seed
};

/// Digest of one basic block's data-flow graph: node count, per-node op
/// kind, bit width, immediate and operand lists (edges). Node labels are
/// debugging aids that never influence a partitioning result, so they
/// are deliberately excluded — renaming a temp does not invalidate a
/// cache, changing an operation does.
Fingerprint fingerprint(const ir::Dfg& dfg);

/// Digest of a whole CDFG: graph name, entry block, and per block its
/// name, DFG digest and successor list. Block names ARE covered (moved
/// kernels are reported by name, so they are part of a cell result).
Fingerprint fingerprint(const ir::Cdfg& cdfg);

/// Digest of a dynamic profile: the number of recorded blocks, then
/// every recorded (block, execution count) pair in ascending block id. A
/// block recorded with count 0 is hashed; a block never recorded is not.
Fingerprint fingerprint(const ir::ProfileData& profile);

/// Digest of a platform instance: every timing/area/policy field of the
/// FPGA, CGC and shared-memory models.
Fingerprint fingerprint(const platform::Platform& platform);

/// Digest of the engine options: analysis weights and filters, strategy,
/// ordering, cost objective (kind, combined weights, every EnergyModel
/// price, energy budget), seed and all search knobs. Over-keying is
/// deliberate — a
/// field that happens not to matter for one strategy only costs cache
/// hits, never correctness.
Fingerprint fingerprint(const MethodologyOptions& options);

/// Digest of an application: CDFG x profile, the "app" axis of a sweep
/// cache key.
Fingerprint app_fingerprint(const ir::Cdfg& cdfg,
                            const ir::ProfileData& profile);

/// Key of one (app, platform) cell group: what memoized HybridMapper
/// state and all-fine-grain cycle counts are addressed by.
Fingerprint shard_key(const Fingerprint& app, const Fingerprint& platform);

/// Key of one sweep cell: (app, platform, engine options, timing
/// constraint). options must already carry the cell's strategy and
/// ordering.
Fingerprint cell_key(const Fingerprint& app, const Fingerprint& platform,
                     const MethodologyOptions& options,
                     std::int64_t constraint);

}  // namespace amdrel::core
