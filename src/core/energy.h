#pragma once

#include <cstdint>

#include "core/methodology.h"

namespace amdrel::core {

// EnergyModel / EnergyBreakdown live in core/objective.h (re-exported
// through core/methodology.h) so the CostObjective abstraction and the
// IncrementalSplit energy deltas can use them without this header.

/// Prices one block for both sides of the split from its op mix and
/// live-in/out word count (HybridMapper::op_mix / live_words), so the
/// engine hot paths never walk DFG nodes to price energy. The
/// BlockEnergy struct lives in core/objective.h with the other energy
/// value types, so the IncrementalSplit can hold contributions without
/// this header. `mapping` must be the block's fine-grain mapping on the
/// platform being priced. Blocks that never execute contribute nothing
/// (matching estimate_energy, which skips them including their
/// amortized reconfiguration charge).
BlockEnergy block_energy(const ir::OpMix& mix, std::int64_t comm_words,
                         const finegrain::FpgaBlockMapping& mapping,
                         std::uint64_t iterations, const EnergyModel& model);

/// Prices the split where `moved` blocks run on the CGC data-path and the
/// rest on the fine-grain hardware.
EnergyBreakdown estimate_energy(const ir::Cdfg& cdfg,
                                const ir::ProfileData& profile,
                                const platform::Platform& platform,
                                const std::vector<ir::BlockId>& moved,
                                const EnergyModel& model = {});

/// Same pricing on a caller-owned mapper, reusing its fine-grain
/// mappings instead of re-mapping every block — the sweep hot
/// path. Byte-identical to the standalone overload (same per-block terms
/// accumulated in the same block order).
EnergyBreakdown estimate_energy(const HybridMapper& mapper,
                                const ir::ProfileData& profile,
                                const std::vector<ir::BlockId>& moved,
                                const EnergyModel& model = {});

}  // namespace amdrel::core
