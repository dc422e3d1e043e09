#include "core/cost_model.h"

#include <algorithm>
#include <functional>

namespace amdrel::core {

std::int64_t CostModel::reconfig_cycles(
    const HybridMapper& mapper, const ir::ProfileData& profile,
    const std::vector<ir::BlockId>& moved) const {
  if (!prices_reconfiguration() || moved.empty()) return 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> savings;
  savings.reserve(moved.size());
  for (const ir::BlockId block : moved) {
    const std::int64_t load = load_cycles(mapper.node_count(block));
    const std::int64_t w = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(profile.count(block)));
    total += load * w;
    savings.push_back(load * (w - 1));
  }
  const std::size_t resident = std::min<std::size_t>(
      savings.size(), static_cast<std::size_t>(resident_regions()));
  std::partial_sort(savings.begin(),
                    savings.begin() + static_cast<std::ptrdiff_t>(resident),
                    savings.end(), std::greater<std::int64_t>());
  for (std::size_t i = 0; i < resident; ++i) total -= savings[i];
  return total;
}

std::int64_t CostModel::moved_units(const HybridMapper& mapper,
                                    const std::vector<ir::BlockId>& moved) {
  std::int64_t units = 0;
  for (const ir::BlockId block : moved) {
    units += mapper.node_count(block);
  }
  return units;
}

ReconfigCostModel::ReconfigCostModel(const platform::ReconfigModel& model,
                                     int default_regions)
    : model_(model),
      regions_(model.regions > 0 ? model.regions
                                 : std::max(1, default_regions)) {}

std::unique_ptr<CostModel> make_cost_model(
    const ObjectiveSpec& spec, const platform::Platform& platform) {
  if (spec.reconfig.enabled()) {
    return std::make_unique<ReconfigCostModel>(spec.reconfig,
                                               platform.cgc.count);
  }
  return std::make_unique<AdditiveCostModel>();
}

}  // namespace amdrel::core
