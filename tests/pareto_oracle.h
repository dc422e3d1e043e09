// The reference Pareto computation the sweep's fronts are tested
// against: the all-pairs O(n^2) dominance loop that
// finalize_sweep_summary ran before it became a sort-filter skyline,
// kept verbatim so the skyline is pinned to the original semantics
// (NaN keys included: every comparison with NaN is false, so a NaN-keyed
// cell is never dominated and dominates nothing).

#pragma once

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"

namespace amdrel::core {

/// True if `b` dominates `a` over (final cycles, kernels moved, platform
/// + floorplan cost, energy pJ), all minimized.
inline bool oracle_dominates(const SweepCell& b, const SweepCell& a) {
  const double b_cost = b.platform_cost + b.report.floorplan_cost;
  const double a_cost = a.platform_cost + a.report.floorplan_cost;
  const bool no_worse = b.report.final_cycles <= a.report.final_cycles &&
                        b.report.moved.size() <= a.report.moved.size() &&
                        b_cost <= a_cost &&
                        b.report.energy.total_pj() <=
                            a.report.energy.total_pj();
  const bool better = b.report.final_cycles < a.report.final_cycles ||
                      b.report.moved.size() < a.report.moved.size() ||
                      b_cost < a_cost ||
                      b.report.energy.total_pj() <
                          a.report.energy.total_pj();
  return no_worse && better;
}

struct OracleFronts {
  std::vector<bool> on_app_pareto;     ///< [cell]
  std::vector<bool> on_global_pareto;  ///< [cell]
  std::vector<std::vector<std::size_t>> app_pareto;  ///< [app] -> cells
  std::vector<std::size_t> global_pareto;
};

/// The per-app and global fronts of `cells` (whose app indices are below
/// `apps`), by testing every cell against every other cell.
inline OracleFronts oracle_fronts(const std::vector<SweepCell>& cells,
                                  std::size_t apps) {
  OracleFronts fronts;
  fronts.on_app_pareto.resize(cells.size());
  fronts.on_global_pareto.resize(cells.size());
  fronts.app_pareto.resize(apps);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    bool app_dominated = false;
    bool global_dominated = false;
    for (const SweepCell& other : cells) {
      if (&other == &cell || !oracle_dominates(other, cell)) continue;
      global_dominated = true;
      app_dominated = app_dominated || other.app == cell.app;
      if (app_dominated) break;
    }
    if (!app_dominated) {
      fronts.on_app_pareto[i] = true;
      fronts.app_pareto[cell.app].push_back(i);
    }
    if (!global_dominated) {
      fronts.on_global_pareto[i] = true;
      fronts.global_pareto.push_back(i);
    }
  }
  return fronts;
}

/// Checks every front flag and index list of `summary` against the
/// oracle over its cells.
inline void expect_oracle_fronts(const SweepSummary& summary) {
  const OracleFronts want =
      oracle_fronts(summary.cells, summary.apps.size());
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    EXPECT_EQ(summary.cells[i].on_app_pareto, want.on_app_pareto[i])
        << "cell " << i;
    EXPECT_EQ(summary.cells[i].on_global_pareto, want.on_global_pareto[i])
        << "cell " << i;
  }
  EXPECT_EQ(summary.app_pareto, want.app_pareto);
  EXPECT_EQ(summary.global_pareto, want.global_pareto);
}

}  // namespace amdrel::core
