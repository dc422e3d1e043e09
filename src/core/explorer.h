#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.h"
#include "core/methodology.h"
#include "core/strategy.h"

namespace amdrel::core {

class SweepCache;

// ---------------------------------------------------------------------------
// Design-space sweeps: the "what platform should we build, and for which
// applications" question. sweep_design_space crosses a grid of platform
// instances with a corpus of applications and, for every (app, platform)
// pair, the engine's knobs: timing constraints x energy budgets x
// strategies x kernel orderings. Exploring one app on one platform is
// the same call over a one-app corpus and a one-point grid; its per-app
// front, app_pareto[0], is that exploration's Pareto front.
// ---------------------------------------------------------------------------

/// The platform axes of a sweep: every (A_FPGA, CGC count) pair of the
/// cross product is instantiated with make_paper_platform. Order is
/// area-major, matching the paper's Table 2/3 column order.
struct PlatformGrid {
  std::vector<double> areas = {1500};
  std::vector<int> cgc_counts = {2};
  std::size_t size() const { return areas.size() * cgc_counts.size(); }
};

/// Parses the CLI grid spec "a1,a2,...xc1,c2,..." (areas, an 'x', CGC
/// counts — e.g. "1500,5000x2,3"). Returns nullopt for anything
/// malformed: missing/extra 'x', empty lists, non-numeric items,
/// non-positive or non-finite areas, CGC counts outside [1, 1024].
std::optional<PlatformGrid> parse_platform_grid(std::string_view spec);

/// One application of a sweep corpus: a profiled CDFG plus the name used
/// in reports and machine-readable output.
struct CorpusApp {
  std::string name;
  ir::Cdfg cdfg{"app"};
  ir::ProfileData profile;
};

/// The full sweep grid: platform axes crossed with the engine axes
/// (constraints x energy budgets x strategies x orderings), applied to
/// every corpus app.
struct SweepSpec {
  PlatformGrid grid;
  /// Timing constraints; empty sweeps 1/4, 1/2 and 3/4 of each
  /// (app, platform) cell's all-fine-grain cycle count (the fractions
  /// adapt to the app's scale, so one spec serves OFDM's 10^5 cycles and
  /// JPEG's 10^7 alike).
  std::vector<std::int64_t> constraints;
  /// Energy budgets (pJ) — the energy axis, consulted by kEnergy and
  /// kCombined objectives. Empty sweeps the single budget in
  /// base.cost.energy_budget_pj; see sweep_energy_budgets.
  std::vector<double> energy_budgets;
  std::vector<StrategyKind> strategies = all_strategies();
  std::vector<KernelOrdering> orderings = {KernelOrdering::kWeightDescending};
  /// Per-run options (seed, annealing budget, ...); strategy, ordering
  /// and energy budget are overwritten per cell.
  MethodologyOptions base;
  /// Threads computing shards, the caller included; 0 picks the
  /// hardware concurrency. Results are identical for any thread count.
  int threads = 0;
  /// Optional content-addressed memoization store (core/sweep_cache.h).
  /// Repeated cells hit whole cached results, and a shard with a missed
  /// cell counts its mapper build there. Null runs uncached;
  /// results are identical either way.
  SweepCache* cache = nullptr;
};

/// One cell of a sweep: an (app, platform, constraint, energy budget,
/// strategy, ordering) coordinate with its methodology result.
struct SweepCell {
  std::size_t app = 0;  ///< index into SweepSummary::apps
  double a_fpga = 0;
  int cgcs = 0;
  double platform_cost = 0;  ///< platform::platform_cost of the cell
  std::int64_t constraint = 0;
  double energy_budget_pj = 0;
  StrategyKind strategy = StrategyKind::kGreedyPaper;
  KernelOrdering ordering = KernelOrdering::kWeightDescending;
  PartitionReport report;
  std::vector<std::string> moved_names;  ///< report.moved as block names
  bool on_app_pareto = false;
  bool on_global_pareto = false;
};

/// Sweep output. Cells are in deterministic grid order: app-major, then
/// area, CGC count, constraint, energy budget, strategy, ordering. Two
/// kinds of Pareto front over (final cycles, kernels moved, platform
/// cost, energy pJ), all minimized: one per app (cells of that app only)
/// and one merged global front over every cell.
struct SweepSummary {
  std::vector<std::string> apps;
  std::vector<SweepCell> cells;
  std::vector<std::vector<std::size_t>> app_pareto;  ///< [app] -> cell indices
  std::vector<std::size_t> global_pareto;            ///< cell indices, ascending
};

/// Worker threads a sweep actually runs for `jobs` independent work
/// units: `requested` (0 = the hardware concurrency) clamped to
/// [1, jobs]. Shared by the sweep, its workers and the CLI's reporting.
int worker_count(std::size_t jobs, int requested);

/// Runs the whole grid x corpus sweep through compute_sweep_shards, one
/// shard per (app, platform) cell group; each cell is identical to a
/// standalone run_methodology call. The output depends only on (corpus,
/// spec), never on thread scheduling.
SweepSummary sweep_design_space(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec);

// ---------------------------------------------------------------------------
// Building blocks of sweep_design_space, exported so the distributed
// sweep service (core/sweep_service.h) runs workers and coordinator
// through the EXACT code path of a single-process sweep — that identity,
// not a parallel re-implementation, is what makes the distributed output
// byte-identical by construction.
// ---------------------------------------------------------------------------

/// Slot CAPACITY of one (app, platform) shard: constraint slots (3 when
/// spec.constraints is empty — the default quarter-point fractions) x
/// energy budgets x strategies x orderings. A shard may FILL fewer when
/// default fractions collapse on a tiny app; see compute_sweep_shard.
std::size_t sweep_cells_per_shard(const SweepSpec& spec);

/// Number of (app, platform) shards: corpus size x grid size. Shard s is
/// app s / grid.size(), platform s % grid.size() — the deterministic
/// index the sweep service partitions across workers.
std::size_t sweep_shard_count(const std::vector<CorpusApp>& corpus,
                              const SweepSpec& spec);

/// The energy-budget axis: spec.energy_budgets, or the single budget in
/// spec.base.cost.energy_budget_pj when that is empty.
std::vector<double> sweep_energy_budgets(const SweepSpec& spec);

/// The coordinates a shard index fixes for every cell of the shard.
struct SweepShardCoords {
  std::size_t app = 0;
  double a_fpga = 0;
  int cgcs = 0;
  platform::Platform platform;  ///< make_paper_platform(a_fpga, cgcs)
  double platform_cost = 0;
};

/// Decodes shard `shard` (see sweep_shard_count) and builds and prices
/// its platform, once per shard.
SweepShardCoords sweep_shard_coords(const SweepSpec& spec, std::size_t shard);

/// The slot layout of a shard, in one place: slot i is constraint-major,
/// then energy budget, strategy, ordering. Fills the fields of `cell`
/// that the shard and slot indices fix — app, a_fpga, cgcs,
/// platform_cost, energy_budget_pj, strategy and ordering. The
/// constraint is resolved per shard and left to the caller. `budgets`
/// must be sweep_energy_budgets(spec).
void fill_slot_coords(const SweepSpec& spec, const std::vector<double>& budgets,
                      const SweepShardCoords& shard, std::size_t slot,
                      SweepCell& cell);

/// The argument checks sweep_design_space performs (non-empty corpus,
/// grid and strategy/ordering axes; unique app names). Throws Error.
void validate_sweep_inputs(const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec);

/// App fingerprints, one per corpus app. The sweep itself takes them
/// from AxisMemo::app_key; perfbench's perf_trace calls this.
std::vector<Fingerprint> sweep_app_fingerprints(
    const std::vector<CorpusApp>& corpus);

/// Computes ONE shard's cell group into slots[0 .. cells_per_shard) and
/// returns how many slots it filled (a contiguous prefix, shorter only
/// when default constraints collapsed). Binds `memo` to the shard's app,
/// resolves the constraint axis and prices one (strategy, ordering) walk
/// at a time on a mapper view from the memo, taken only when a cell
/// misses spec.cache. Fresh cells and the all-fine count are stored in
/// spec.cache when set, keyed by memo.app_key(). A memo shares tables
/// and walks with the shards of the same app computed on it before; the
/// cells are the same as with a fresh memo.
std::size_t compute_sweep_shard(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec, std::size_t shard,
                                SweepCell* slots, AxisMemo& memo);

/// Receives one computed shard on the thread that called
/// compute_sweep_shards: its position in the shard list, its
/// cells_per_shard slots and how many of them compute_sweep_shard filled.
using ShardSink = std::function<void(std::size_t index,
                                     std::vector<SweepCell>& cells,
                                     std::size_t used)>;

/// The one sweep loop: computes the listed shards (indices as in
/// sweep_shard_count) on worker_count(shards.size(), spec.threads)
/// threads, the caller and the helpers it starts, each with its own
/// AxisMemo. Shards are claimed in list order. The caller hands each
/// finished shard to `sink` in list order; while the next one is not
/// done it computes an unclaimed shard, and it waits only when none is
/// left. When a shard throws, no further shard is claimed, the helpers
/// are joined and the failure first in list order is rethrown after the
/// shards before it reached `sink`. A throwing `sink` stops the same way.
void compute_sweep_shards(const std::vector<CorpusApp>& corpus,
                          const SweepSpec& spec,
                          const std::vector<std::size_t>& shards,
                          const ShardSink& sink);

/// The post-compute half of sweep_design_space: compacts away unused
/// tail slots (summary.cells must hold shard_used.size() x
/// cells_per_shard slots in shard order) and computes the per-app and
/// global Pareto fronts. The coordinator runs this over worker-streamed
/// cells; byte-identity follows because fronts are derived here, never
/// transmitted. The fronts come from a sort-filter skyline: one
/// lexicographic sort of the cells' keys, then each cell is tested only
/// against the fronts built so far, O(n log n + n * |front|). A cell
/// with a NaN cost or energy key is on both fronts and dominates
/// nothing, exactly as under the all-pairs dominance test.
void finalize_sweep_summary(SweepSummary& summary,
                            const std::vector<std::size_t>& shard_used,
                            std::size_t cells_per_shard);

/// Renders the sweep as a fixed-width table: one row per cell, per-app
/// Pareto cells marked "*", cells also on the merged global front "**".
std::string describe(const SweepSummary& summary);

}  // namespace amdrel::core
