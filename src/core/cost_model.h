#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "ir/profile.h"

namespace amdrel::core {

/// The single owner of movement pricing beyond the paper's additive
/// equation (2). The engine historically scattered pricing across
/// platform_cost, CostObjective::value/met, core/energy.h block pricing
/// and IncrementalSplit's O(1) deltas — all of it per-block additive, an
/// assumption the reconfiguration model deliberately breaks (a module's
/// load charge depends on WHICH other modules hold the PR regions). This
/// interface is the seam: the additive v2 behaviour is one
/// implementation (every charge zero), the reconfiguration-aware model
/// another, and IncrementalSplit / the strategies / run_methodology
/// consume whichever one make_cost_model selects from the ObjectiveSpec.
///
/// Pricing semantics of the reconfiguration charge, shared by the exact
/// evaluator below and IncrementalSplit's incremental repricing:
///
///   units(b)  = DFG node count of block b (bitstream-size proxy)
///   load(b)   = model.load_cycles(units(b))          (0 when disabled)
///   w(b)      = max(1, profile iterations of b)
///   R         = resident_regions() >= 1
///
/// Every moved block pays load(b) on each of its w(b) invocations,
/// except that the R moved blocks with the largest re-load saving
/// load(b)*(w(b)-1) stay resident in the PR regions and pay only once:
///
///   t_reconfig(M) = sum_{b in M} load(b)*w(b)
///                 - sum_{b in topR(M)} load(b)*(w(b)-1)
///
/// Equivalently t_reconfig(M) = sum load(b) + E(M) with the excess
/// E(M) = sum savings - topR savings >= 0. E is monotone nondecreasing
/// under set inclusion (adding a block with saving s raises the topR sum
/// by at most s), which is exactly what keeps the exhaustive strategy's
/// suffix bound admissible — see the proof note in core/strategy.cc.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// True when any reconfiguration charge can be nonzero. False lets
  /// IncrementalSplit skip the repricing machinery entirely — the
  /// additive fast path, byte-identical to the pre-CostModel engine.
  virtual bool prices_reconfiguration() const = 0;

  /// Configuration-load latency in FPGA cycles for a module of `units`
  /// op nodes.
  virtual std::int64_t load_cycles(std::int64_t units) const = 0;

  /// Number of PR regions that keep a configuration resident across
  /// invocations; always >= 1.
  virtual int resident_regions() const = 0;

  /// Area-equivalent floorplan charge for `units` total moved op nodes.
  /// Reported beside platform_cost (PartitionReport::floorplan_cost and
  /// the sweep's Pareto platform-cost axis), never added to cycles.
  virtual double floorplan_cost(std::int64_t units) const = 0;

  /// Exact from-scratch reconfiguration charge for a moved set — the
  /// reference IncrementalSplit's incremental t_reconfig is property-
  /// tested against, and the repricer run_methodology uses for restored
  /// cache hits.
  std::int64_t reconfig_cycles(const HybridMapper& mapper,
                               const ir::ProfileData& profile,
                               const std::vector<ir::BlockId>& moved) const;

  /// Total moved units for floorplan pricing.
  static std::int64_t moved_units(const HybridMapper& mapper,
                                  const std::vector<ir::BlockId>& moved);
};

/// The paper's additive pricing (v2): no reconfiguration or floorplan
/// charges at all. Byte-identical to the pre-CostModel engine.
class AdditiveCostModel final : public CostModel {
 public:
  bool prices_reconfiguration() const override { return false; }
  std::int64_t load_cycles(std::int64_t) const override { return 0; }
  int resident_regions() const override { return 1; }
  double floorplan_cost(std::int64_t) const override { return 0.0; }
};

/// Reconfiguration-aware pricing driven by a platform::ReconfigModel.
/// `default_regions` resolves ReconfigModel::regions == 0 (one region
/// per CGC, so pass the platform's cgc.count).
class ReconfigCostModel final : public CostModel {
 public:
  ReconfigCostModel(const platform::ReconfigModel& model, int default_regions);

  bool prices_reconfiguration() const override {
    return model_.bitstream_cycles_per_unit > 0;
  }
  std::int64_t load_cycles(std::int64_t units) const override {
    return model_.load_cycles(units);
  }
  int resident_regions() const override { return regions_; }
  double floorplan_cost(std::int64_t units) const override {
    return model_.floorplan_cost_per_unit * static_cast<double>(units);
  }

 private:
  platform::ReconfigModel model_;
  int regions_;
};

/// Selects the pricing implementation for an ObjectiveSpec: the additive
/// model unless spec.reconfig prices something. `platform` resolves the
/// regions default. The zero-model identity (every golden byte-for-byte
/// unchanged) is pinned by the additive-equivalence property suite.
std::unique_ptr<CostModel> make_cost_model(const ObjectiveSpec& spec,
                                           const platform::Platform& platform);

}  // namespace amdrel::core
