#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>

#include "support/bitset.h"
#include "support/error.h"

namespace amdrel::core {

namespace {

std::vector<StrategyResult> greedy(const AxisContext& ctx) {
  const std::size_t cells = ctx.cells.size();
  std::vector<StrategyResult> results(cells);
  IncrementalSplit split(ctx.mapper, ctx.profile, ctx.options.cost);
  // Objective values of pure-timing splits are integer cycle counts held
  // exactly in a double, so these comparisons replicate the original
  // int64 ones bit-for-bit.
  double best_value = split.objective_value();
  SplitCost best_cost = split.cost();
  std::size_t best_commits = 0;  ///< committed prefix length at the best

  // The commit walk never consults a constraint: each cell only decides
  // where along the shared trajectory it stops. A cell's result at its
  // stop point is exactly what a standalone run would have returned,
  // including engine_iterations (the stop index).
  std::vector<ir::BlockId> committed;
  std::vector<char> resolved(cells, 0);
  std::size_t unresolved = cells;
  int step = 0;  ///< eligible kernels processed so far

  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    if (unresolved == 0) break;  // every cell already stopped
    if (!kernel.cgc_eligible) continue;  // divisions stay on the FPGA
    step++;

    split.move(kernel.block);
    const double value = split.objective_value();

    if (ctx.options.skip_unprofitable && value > best_value) {
      split.unmove(kernel.block);
      continue;  // ablation mode only; the paper always commits the move
    }
    committed.push_back(kernel.block);
    if (value < best_value) {
      best_value = value;
      best_cost = split.cost();
      best_commits = committed.size();
    }
    if (ctx.options.stop_when_met) {
      const std::int64_t cycles = split.cost().total();
      const double energy_pj = split.energy().total_pj();
      for (std::size_t c = 0; c < cells; ++c) {
        if (resolved[c]) continue;
        if (!ctx.options.cost.objective.met(cycles, energy_pj,
                                       ctx.cells[c].timing_constraint,
                                       ctx.cells[c].energy_budget_pj)) {
          continue;
        }
        StrategyResult& result = results[c];
        result.cost = split.cost();
        result.moved = committed;
        result.engine_iterations = step;
        resolved[c] = 1;
        unresolved--;
      }
    }
  }
  // Cells the walk never satisfied report the best split it found.
  for (std::size_t c = 0; c < cells && unresolved != 0; ++c) {
    if (resolved[c]) continue;
    StrategyResult& result = results[c];
    result.cost = best_cost;
    result.moved.assign(committed.begin(),
                        committed.begin() +
                            static_cast<std::ptrdiff_t>(best_commits));
    result.engine_iterations = step;
  }
  return results;
}

StrategyResult exhaustive(const AxisContext& ctx,
                          const std::vector<ir::BlockId>& movable,
                          const AxisCell& cell) {
  StrategyResult result;
  const CostObjective& objective = ctx.options.cost.objective;
  IncrementalSplit split(ctx.mapper, ctx.profile, ctx.options.cost);
  const double root_value = split.objective_value();
  const auto split_met = [&](const IncrementalSplit& s) {
    return s.meets(cell.timing_constraint, cell.energy_budget_pj);
  };

  // Candidates: the movable kernels (the first eligible ones in the
  // analysis order, capped), sorted most-beneficial-first so the bound
  // prunes early. Each carries its per-axis deltas: the bound needs
  // cycles and energy separately (the met() test is per-axis), the
  // ordering and the best-value bound use the objective scalar.
  struct Candidate {
    ir::BlockId block;
    double value_delta;        ///< objective-scalar change of the move
    std::int64_t cycle_delta;  ///< total-cycle change of the move
    double energy_delta;       ///< total-pJ change of the move
  };
  std::vector<Candidate> candidates;
  candidates.reserve(movable.size());
  for (const ir::BlockId block : movable) {
    const SplitCost root_cost = split.cost();
    const double root_energy = split.energy().total_pj();
    split.move(block);
    const double value_delta = split.objective_value() - root_value;
    const std::int64_t cycle_delta = split.cost().total() - root_cost.total();
    const double energy_delta = split.energy().total_pj() - root_energy;
    split.unmove(block);
    candidates.push_back({block, value_delta, cycle_delta, energy_delta});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.value_delta < b.value_delta;
                   });

  const std::size_t n = candidates.size();
  // suffix_*[i]: the best possible further reduction from position i on
  // (sum of the remaining negative deltas, per axis) — the admissible
  // bound.
  //
  // Admissibility under reconfiguration pricing (which is
  // deliberately NOT per-block additive): write the cycle cost of a
  // moved set M as C(M) = A(M) + E(M), where A(M) = base + sum over M of
  // (additive cycle delta + load(b)) and the residency excess
  // E(M) = sum_{b in M} saving(b) - topR_savings(M) >= 0 with
  // saving(b) = load(b) * (iterations(b) - 1). The root-measured deltas
  // above are exactly A's per-block terms: a single moved block is
  // always resident (R >= 1), so its measured t_reconfig is load(b)
  // alone, i.e. E({b}) = 0. E is monotone nondecreasing under set
  // inclusion — adding block x raises total savings by saving(x) while
  // the top-R sum rises by AT MOST saving(x) (any R-subset of M+{x}
  // either avoids x, so it was available in M, or swaps x in for one
  // block) — hence for any extension T of the current subset S:
  //   C(S+T) = A(S) + sum_{j in T} a_j + E(S+T)
  //         >= A(S) + E(S) + sum_{j in T} a_j
  //          = C(S) + sum_{j in T} a_j
  //         >= C(S) + (sum of the NEGATIVE remaining deltas).
  // The same argument scales through non-negative objective weights
  // (run_methodology requires them) for the value axis, and the energy
  // axis carries no reconfiguration charge at all, so all three suffix
  // sums below stay true lower bounds. The small-N brute-force property
  // test pins this optimality under nonzero reconfiguration latency.
  std::vector<double> suffix_value(n + 1, 0.0);
  std::vector<std::int64_t> suffix_cycles(n + 1, 0);
  std::vector<double> suffix_energy(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    suffix_value[i] =
        suffix_value[i + 1] + std::min(0.0, candidates[i].value_delta);
    suffix_cycles[i] =
        suffix_cycles[i + 1] +
        std::min<std::int64_t>(0, candidates[i].cycle_delta);
    suffix_energy[i] =
        suffix_energy[i + 1] + std::min(0.0, candidates[i].energy_delta);
  }

  // The whole recursion state — current subset, fewest-moves-met record,
  // best-anywhere record — lives in word-sized bitsets, so taking and
  // dropping a candidate is a bit flip and record updates are word
  // copies.
  SmallBitset taken(n);
  bool met_found = false;
  std::size_t met_moves = 0;
  double met_value = 0.0;
  SplitCost met_cost;
  SmallBitset met_taken(n);
  double best_any_value = root_value;
  SplitCost best_any_cost = split.cost();
  SmallBitset best_any_taken(n);

  const auto dfs = [&](const auto& self, std::size_t i) -> void {
    result.engine_iterations++;
    const double value = split.objective_value();
    if (value < best_any_value) {
      best_any_value = value;
      best_any_cost = split.cost();
      best_any_taken = taken;
    }
    if (split_met(split)) {
      const std::size_t moves = split.moved_count();
      if (!met_found || moves < met_moves ||
          (moves == met_moves && value < met_value)) {
        met_found = true;
        met_moves = moves;
        met_value = value;
        met_cost = split.cost();
        met_taken = taken;
      }
    }
    if (i == n) return;

    // Optimistic completion of this subtree, per axis: no reachable
    // split can beat these, so prune when neither the best-value nor the
    // fewest-moves-met record can improve.
    const bool can_improve_any =
        value + suffix_value[i] < best_any_value;
    const bool can_improve_met =
        objective.met(split.cost().total() + suffix_cycles[i],
                      split.energy().total_pj() + suffix_energy[i],
                      cell.timing_constraint, cell.energy_budget_pj) &&
        (!met_found || split.moved_count() + 1 <= met_moves);
    if (!can_improve_any && !can_improve_met) return;

    split.move(candidates[i].block);
    taken.set(i);
    self(self, i + 1);
    split.unmove(candidates[i].block);
    taken.clear(i);
    self(self, i + 1);
  };
  dfs(dfs, 0);

  const SmallBitset& chosen = met_found ? met_taken : best_any_taken;
  result.cost = met_found ? met_cost : best_any_cost;
  // Emit the moved blocks in the analysis (priority) order for readable
  // reports, independent of the internal search order.
  SmallBitset is_chosen(static_cast<std::size_t>(ctx.mapper.cdfg().size()));
  chosen.for_each_set(
      [&](std::size_t i) { is_chosen.set(
          static_cast<std::size_t>(candidates[i].block)); });
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    if (is_chosen.test(static_cast<std::size_t>(kernel.block))) {
      result.moved.push_back(kernel.block);
    }
  }
  return result;
}

// Every walk of a sweep seeds mt19937_64 with the same
// options.random_seed, so they all consume one raw 64-bit stream. Each
// thread records its first kTapeWords words (128 KiB) once per seed and
// walks replay them; `tail` is the engine positioned right after the
// last recorded word.
constexpr std::size_t kTapeWords = std::size_t{1} << 14;

struct DrawTape {
  std::optional<std::uint64_t> seed;  ///< empty until the first walk
  std::vector<std::mt19937_64::result_type> words;
  std::mt19937_64 tail;
};

const DrawTape& draw_tape(std::uint64_t seed) {
  thread_local DrawTape tape;
  if (tape.seed != seed) {
    tape.seed = seed;
    tape.tail.seed(seed);
    tape.words.resize(kTapeWords);
    for (auto& word : tape.words) word = tape.tail();
  }
  return tape;
}

// A URBG with the engine's type and range that replays the thread's
// tape from its first word, so the unchanged distributions draw exactly
// what a freshly seeded engine would give them. A walk that runs past
// the tape continues from its own copy of the tail engine.
class TapeReplay {
 public:
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  explicit TapeReplay(const DrawTape& tape)
      : tape_(&tape), words_(tape.words.data()) {}

  result_type operator()() {
    if (next_ < kTapeWords) return words_[next_++];
    if (!past_tape_) past_tape_ = tape_->tail;
    return (*past_tape_)();
  }

 private:
  const DrawTape* tape_;
  const result_type* words_;
  std::size_t next_ = 0;
  std::optional<std::mt19937_64> past_tape_;
};

// Below this Metropolis exponent exp(x) < exp(-50) < 2^-64, the smallest
// nonzero draw of uniform_real_distribution<double>(0, 1) over a 64-bit
// engine, so `u < exp(x)` reduces to `u == 0 && exp(x) > 0`.
// AnnealingShortcutTest pins both facts.
constexpr double kExpCutoff = -50.0;

std::vector<StrategyResult> annealing(const AxisContext& ctx) {
  const std::size_t cells = ctx.cells.size();
  std::vector<StrategyResult> results(cells);
  IncrementalSplit split(ctx.mapper, ctx.profile, ctx.options.cost);
  const CostObjective& objective = ctx.options.cost.objective;

  const std::vector<ir::BlockId> candidates =
      movable_kernels(StrategyKind::kAnnealing, ctx);
  double best_value = split.objective_value();
  SplitCost best_cost = split.cost();
  double best_energy = split.energy().total_pj();
  SmallBitset best_state(candidates.size());
  for (StrategyResult& result : results) result.cost = best_cost;
  if (candidates.empty()) return results;

  TapeReplay rng(draw_tape(ctx.options.random_seed));
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
  const bool normalized = objective.kind != ObjectiveKind::kTiming;
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
  // The loosest limits over unresolved cells. met() is monotone in both
  // limits, so a split that fails them meets no unresolved cell and the
  // per-cell scan is skipped. A NaN budget never meets (and kTiming
  // ignores budgets), so it is left out of the maximum.
  std::int64_t loosest_constraint = 0;
  double loosest_budget = 0.0;
  const auto refresh_loosest = [&] {
    loosest_constraint = std::numeric_limits<std::int64_t>::min();
    loosest_budget = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cells; ++c) {
      if (resolved[c]) continue;
      loosest_constraint =
          std::max(loosest_constraint, ctx.cells[c].timing_constraint);
      const double budget = ctx.cells[c].energy_budget_pj;
      if (budget > loosest_budget) loosest_budget = budget;
    }
  };
  refresh_loosest();

  SmallBitset state(candidates.size());
  double current = best_value;
  for (int step = 0; step < iterations && unresolved > 0; ++step) {
    const std::size_t i = pick(rng);
    const double proposed = split.propose_flip(candidates[i]);
    const double delta = proposed - current;
    if (delta > 0.0) uphill_proposed++;
    bool accepted = delta <= 0.0;
    if (!accepted) {
      const double u = uniform(rng);
      const double x = -(delta / scale) / temperature;
      accepted = x < kExpCutoff ? u == 0.0 && std::exp(x) > 0.0
                                : u < std::exp(x);
    }
    temperature = std::max(floor_temp, temperature * cooling);
    if (!accepted) {
      split.reject_flip();
      continue;
    }
    split.accept_flip();
    if (delta > 0.0) uphill_accepted++;
    state.flip(i);
    current = proposed;
    if (proposed < best_value) {
      best_value = proposed;
      best_cost = split.cost();
      best_energy = split.energy().total_pj();
      best_state = state;
    }
    if (!ctx.options.stop_when_met ||
        !objective.met(split.cost().total(), split.energy().total_pj(),
                       loosest_constraint, loosest_budget)) {
      continue;
    }
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
      const bool best_meets =
          objective.met(best_cost.total(), best_energy,
                        cell.timing_constraint, cell.energy_budget_pj);
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
    refresh_loosest();
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

}  // namespace

std::vector<StrategyResult> run_strategy(StrategyKind kind,
                                         const AxisContext& ctx) {
  switch (kind) {
    case StrategyKind::kGreedyPaper:
      return greedy(ctx);
    case StrategyKind::kExhaustive: {
      const std::vector<ir::BlockId> movable = movable_kernels(kind, ctx);
      std::vector<StrategyResult> results;
      results.reserve(ctx.cells.size());
      for (const AxisCell& cell : ctx.cells) {
        results.push_back(exhaustive(ctx, movable, cell));
      }
      return results;
    }
    case StrategyKind::kAnnealing:
      return annealing(ctx);
  }
  throw Error("run_strategy: unknown strategy kind");
}

std::vector<ir::BlockId> movable_kernels(StrategyKind kind,
                                         const AxisContext& ctx) {
  const auto cap =
      kind == StrategyKind::kExhaustive
          ? static_cast<std::size_t>(
                std::max(0, ctx.options.exhaustive_max_kernels))
          : ctx.kernels.size();
  std::vector<ir::BlockId> movable;
  for (const analysis::KernelInfo& kernel : ctx.kernels) {
    if (movable.size() >= cap) break;
    if (kernel.cgc_eligible) movable.push_back(kernel.block);
  }
  return movable;
}

const std::vector<StrategyKind>& all_strategies() {
  static const std::vector<StrategyKind> kinds = {
      StrategyKind::kGreedyPaper, StrategyKind::kExhaustive,
      StrategyKind::kAnnealing};
  return kinds;
}

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kGreedyPaper: return "greedy";
    case StrategyKind::kExhaustive: return "exhaustive";
    case StrategyKind::kAnnealing: return "annealing";
  }
  return "?";
}

std::optional<StrategyKind> parse_strategy(std::string_view name) {
  for (const StrategyKind kind : all_strategies()) {
    if (name == strategy_name(kind)) return kind;
  }
  return std::nullopt;
}

const std::vector<KernelOrdering>& all_kernel_orderings() {
  static const std::vector<KernelOrdering> orderings = {
      KernelOrdering::kWeightDescending, KernelOrdering::kBenefitDescending,
      KernelOrdering::kCodeOrder, KernelOrdering::kRandom};
  return orderings;
}

const char* kernel_ordering_name(KernelOrdering ordering) {
  switch (ordering) {
    case KernelOrdering::kWeightDescending: return "weight";
    case KernelOrdering::kBenefitDescending: return "benefit";
    case KernelOrdering::kCodeOrder: return "code";
    case KernelOrdering::kRandom: return "random";
  }
  return "?";
}

std::optional<KernelOrdering> parse_kernel_ordering(std::string_view name) {
  for (const KernelOrdering ordering : all_kernel_orderings()) {
    if (name == kernel_ordering_name(ordering)) return ordering;
  }
  return std::nullopt;
}

}  // namespace amdrel::core
