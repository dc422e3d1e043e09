// The reference annealing walk the strategy's `annealing()` is tested
// against: the loop as it stood before proposals were priced without
// mutating the split and before the walk replayed its rng draws from a
// per-thread tape, kept verbatim. It draws from a freshly seeded
// mt19937_64, moves or unmoves the proposed block, reads the objective,
// and reverts a rejected flip, so every StrategyResult field it returns
// is the contract the optimized walk must reproduce bit for bit.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "core/strategy.h"
#include "support/bitset.h"

namespace amdrel::core {

inline std::vector<StrategyResult> oracle_annealing(const AxisContext& ctx) {
  const std::size_t cells = ctx.cells.size();
  std::vector<StrategyResult> results(cells);
  IncrementalSplit split(ctx.mapper, ctx.profile, ctx.options.cost);

  std::vector<ir::BlockId> candidates;
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    if (kernel.cgc_eligible) candidates.push_back(kernel.block);
  }
  double best_value = split.objective_value();
  SplitCost best_cost = split.cost();
  double best_energy = split.energy().total_pj();
  SmallBitset best_state(candidates.size());
  for (StrategyResult& result : results) result.cost = best_cost;
  if (candidates.empty()) return results;

  std::mt19937_64 rng(ctx.options.random_seed);
  std::uniform_int_distribution<std::size_t> pick(0, candidates.size() - 1);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  const int iterations = std::max(1, ctx.options.anneal_iterations);
  // The acceptance temperature must live on the objective's own scale.
  // Timing keeps the historical absolute schedule — start at 5% of the
  // initial cycle count, cool geometrically to 1 cycle — whose walks the
  // sweep goldens pin byte-for-byte (the scale divisor is exactly 1.0,
  // so delta/scale is the identity on those doubles). Energy and
  // combined objectives are pJ-scale scalars, orders of magnitude
  // larger than cycle counts on the same app; the absolute schedule
  // started them far hotter in relative terms (and its floor of 1.0 pJ
  // is relatively far colder), so their walks accepted uphill moves
  // near-blindly for most of the budget. For those spaces the schedule
  // is normalized by the initial objective value: deltas become
  // fractions of the starting cost and temperature runs 5e-2 -> 1e-8
  // relative. The floor sits below the smallest single-flip relative
  // delta either space produces on the paper apps (~4e-7 in pJ space),
  // the same relationship the absolute timing floor of 1 cycle has to
  // its smallest delta, so late-stage walks reject uphill moves in
  // every space instead of boiling forever in pJ space; the
  // AcceptanceRateIsObjectiveScaleFree test pins the resulting rates
  // to one band.
  const bool normalized =
      ctx.options.cost.objective.kind != ObjectiveKind::kTiming;
  const double scale = normalized ? std::max(1.0, best_value) : 1.0;
  const double floor_temp = normalized ? 1e-8 : 1.0;
  double temperature =
      normalized ? 0.05 : std::max(1.0, best_value * 0.05);
  const double cooling =
      std::pow(floor_temp / temperature, 1.0 / iterations);

  // One walk prices every cell: the rng stream, acceptance tests and
  // best tracking consult only objective values, never a constraint or
  // budget, so the trajectory a standalone run would follow for any
  // cell is exactly this one up to that cell's stop point. Each cell
  // resolves online the first time the accepted split meets it; the
  // walk ends early once every cell has resolved, exactly where a
  // single-cell walk would stop.
  std::vector<char> resolved(cells, 0);
  std::size_t unresolved = cells;
  int uphill_proposed = 0;
  int uphill_accepted = 0;

  SmallBitset state(candidates.size());
  double current = best_value;
  for (int step = 0; step < iterations && unresolved > 0; ++step) {
    const std::size_t i = pick(rng);
    const ir::BlockId block = candidates[i];
    if (state.test(i)) {
      split.unmove(block);
    } else {
      split.move(block);
    }
    const double proposed = split.objective_value();
    const double delta = proposed - current;
    if (delta > 0.0) uphill_proposed++;
    if (delta <= 0.0 ||
        uniform(rng) < std::exp(-(delta / scale) / temperature)) {
      if (delta > 0.0) uphill_accepted++;
      state.flip(i);
      current = proposed;
      if (proposed < best_value) {
        best_value = proposed;
        best_cost = split.cost();
        best_energy = split.energy().total_pj();
        best_state = state;
      }
      if (ctx.options.stop_when_met) {
        for (std::size_t c = 0; c < cells; ++c) {
          if (resolved[c]) continue;
          const AxisCell& cell = ctx.cells[c];
          if (!split.meets(cell.timing_constraint, cell.energy_budget_pj)) {
            continue;
          }
          // Stop this cell once its constraint holds (paper-flow
          // semantics) — but hand it a split that actually meets it.
          // For timing and energy objectives best_value <= current
          // implies the recorded best meets too (the scalar IS the
          // constrained quantity), so those cells take the shared best
          // bit-identically; under kCombined the scalar is a weighted
          // sum while met() is per-axis, so the lower-value best can
          // violate an axis the current split satisfies — then the cell
          // takes the current split instead. The shared best itself is
          // never touched: later cells see the same walk state a
          // standalone run would.
          const bool best_meets = ctx.options.cost.objective.met(
              best_cost.total(), best_energy, cell.timing_constraint,
              cell.energy_budget_pj);
          StrategyResult& result = results[c];
          result.cost = best_meets ? best_cost : split.cost();
          result.engine_iterations = step + 1;
          result.uphill_proposed = uphill_proposed;
          result.uphill_accepted = uphill_accepted;
          const SmallBitset& chosen = best_meets ? best_state : state;
          for (std::size_t k = 0; k < candidates.size(); ++k) {
            if (chosen.test(k)) result.moved.push_back(candidates[k]);
          }
          resolved[c] = 1;
          --unresolved;
        }
      }
    } else {
      // Rejected: revert the flip.
      if (state.test(i)) {
        split.move(block);
      } else {
        split.unmove(block);
      }
    }
    temperature = std::max(floor_temp, temperature * cooling);
  }

  // Cells the walk never satisfied get the best split of the full
  // budget, exactly as a standalone run reaching its iteration cap.
  for (std::size_t c = 0; c < cells; ++c) {
    if (resolved[c]) continue;
    StrategyResult& result = results[c];
    result.cost = best_cost;
    result.engine_iterations = iterations;
    result.uphill_proposed = uphill_proposed;
    result.uphill_accepted = uphill_accepted;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (best_state.test(k)) result.moved.push_back(candidates[k]);
    }
  }
  return results;
}

}  // namespace amdrel::core
