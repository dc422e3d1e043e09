#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace amdrel::platform {

/// Partial-reconfiguration pricing for moved modules, ICAP-style: a
/// coarse-grain configuration is loaded through a single configuration
/// port at a fixed throughput, so the load latency of a module scales
/// with its bitstream size, which in turn scales with the region (op
/// count) it occupies. The paper's flow prices configuration loading at
/// zero; this model adds
///
///   - per-module load latency: ceil(units * bitstream_cycles_per_unit
///     * (1 - prefetch_overlap)) FPGA cycles, where `units` is the
///     module's node count (the area proxy the engine already tracks);
///   - configuration prefetch: the fraction of each load hidden behind
///     useful work (0 = blocking ICAP load, 0.9 = a prefetcher that
///     overlaps 90% of the transfer);
///   - region residency: the platform holds `regions` reconfigurable
///     regions (0 = one per CGC). A module resident in a region is
///     loaded once; every other moved module pays its load on each of
///     its `iterations` invocations (the configuration is evicted and
///     re-streamed between runs);
///   - floorplan cost: a per-unit area charge for the PR regions the
///     moved modules occupy, reported next to platform_cost rather than
///     added to the cycle objective.
///
/// The charge for a moved set M, priced incrementally by
/// core::IncrementalSplit:
///
///   units(b)  = DFG node count of block b (bitstream-size proxy)
///   load(b)   = load_cycles(units(b))
///   w(b)      = max(1, profile iterations of b)
///   R         = resident_regions(cgc_count) >= 1
///
///   t_reconfig(M) = sum_{b in M} load(b)*w(b)
///                 - sum_{b in topR(M)} load(b)*(w(b)-1)
///
/// where topR(M) holds the R moved blocks with the largest re-load
/// saving load(b)*(w(b)-1). Equivalently t_reconfig(M) = sum load(b) +
/// E(M) with the excess E(M) = sum savings - topR savings >= 0. E is
/// monotone nondecreasing under set inclusion (adding a block with
/// saving s raises the topR sum by at most s), which is exactly what
/// keeps the exhaustive strategy's suffix bound admissible — see the
/// proof note in core/strategy.cc.
///
/// All-zero defaults price exactly like the paper's additive equation
/// (2): no cycles and no floorplan charge, every golden unchanged.
struct ReconfigModel {
  /// ICAP throughput reciprocal: FPGA cycles to stream one unit (one op
  /// node) of configuration. 0 disables reconfiguration pricing.
  double bitstream_cycles_per_unit = 0;

  /// Fraction of each load hidden by configuration prefetching, in
  /// [0, 1). Applied multiplicatively to the load latency.
  double prefetch_overlap = 0;

  /// Area-equivalent floorplan charge per unit of moved module, added to
  /// the platform-cost Pareto axis (never to the cycle objective).
  double floorplan_cost_per_unit = 0;

  /// Number of reconfigurable regions that can keep a configuration
  /// resident across invocations. 0 means "one per CGC" (resolved
  /// against the platform's cgc.count at pricing time).
  int regions = 0;

  /// Whether this model prices anything beyond the additive v2 flow.
  bool enabled() const {
    return bitstream_cycles_per_unit > 0 || floorplan_cost_per_unit > 0;
  }

  /// Load latency in FPGA cycles for a module of `units` op nodes.
  std::int64_t load_cycles(std::int64_t units) const {
    if (bitstream_cycles_per_unit <= 0) return 0;
    const double raw = static_cast<double>(units) *
                       bitstream_cycles_per_unit *
                       (1.0 - prefetch_overlap);
    return static_cast<std::int64_t>(std::ceil(raw));
  }

  /// PR regions that keep a configuration resident: `regions`, or one
  /// per CGC when it is 0. Always >= 1.
  int resident_regions(int cgc_count) const {
    return regions > 0 ? regions : std::max(1, cgc_count);
  }

  /// Area-equivalent floorplan charge for `units` total moved op nodes.
  /// A disabled model charges +0.0 even when floorplan_cost_per_unit is
  /// -0.0, so `--floorplan-cost -0` prints like the flagless run.
  double floorplan_cost(std::int64_t units) const {
    if (!enabled()) return 0.0;
    return floorplan_cost_per_unit * static_cast<double>(units);
  }
};

}  // namespace amdrel::platform
