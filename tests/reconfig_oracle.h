// The reference reconfiguration charge IncrementalSplit's t_reconfig is
// tested against: a from-scratch evaluation of the formula documented in
// platform/reconfig_model.h over one moved set. Every moved block pays
// load(b) on each of its max(1, iterations) invocations, except the R
// blocks with the largest re-load saving load(b)*(w(b)-1), which stay
// resident and pay once.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/hybrid_mapper.h"
#include "ir/profile.h"
#include "platform/reconfig_model.h"

namespace amdrel::core {

/// Exact reconfiguration charge of `moved` under `model` on the mapper's
/// platform (regions 0 resolves to its CGC count).
inline std::int64_t oracle_reconfig_cycles(
    const platform::ReconfigModel& model, const HybridMapper& mapper,
    const ir::ProfileData& profile, const std::vector<ir::BlockId>& moved) {
  if (model.bitstream_cycles_per_unit <= 0 || moved.empty()) return 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> savings;
  savings.reserve(moved.size());
  for (const ir::BlockId block : moved) {
    const std::int64_t load = model.load_cycles(mapper.node_count(block));
    const std::int64_t w = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(profile.count(block)));
    total += load * w;
    savings.push_back(load * (w - 1));
  }
  const std::size_t resident = std::min<std::size_t>(
      savings.size(), static_cast<std::size_t>(model.resident_regions(
                          mapper.platform().cgc.count)));
  std::partial_sort(savings.begin(),
                    savings.begin() + static_cast<std::ptrdiff_t>(resident),
                    savings.end(), std::greater<std::int64_t>());
  for (std::size_t i = 0; i < resident; ++i) total -= savings[i];
  return total;
}

/// Total op nodes of the moved blocks, the units floorplan_cost prices.
inline std::int64_t oracle_moved_units(const HybridMapper& mapper,
                                       const std::vector<ir::BlockId>& moved) {
  std::int64_t units = 0;
  for (const ir::BlockId block : moved) units += mapper.node_count(block);
  return units;
}

}  // namespace amdrel::core
