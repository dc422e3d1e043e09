#include "core/explorer.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>

#include "core/axis_memo.h"
#include "core/report.h"
#include "core/sweep_cache.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::core {

namespace {

std::vector<std::string> moved_block_names(const ir::Cdfg& cdfg,
                                           const PartitionReport& report) {
  std::vector<std::string> names;
  names.reserve(report.moved.size());
  for (const ir::BlockId block : report.moved) {
    names.push_back(cdfg.block(block).name);
  }
  return names;
}

/// The default constraint axis: the paper's quarter points of the
/// all-fine-grain cycle count. For tiny apps the integer divisions can
/// collapse a fraction to 0 (an unmeetable "finish in no cycles"
/// constraint) or onto a duplicate slot; each value is clamped to at
/// least one cycle and duplicates are dropped, preserving order. Apps
/// with all_fine >= 4 distinct quarter points (every paper app) are
/// unchanged, so the sweep goldens never see the clamp.
std::vector<std::int64_t> default_constraints(std::int64_t all_fine) {
  std::vector<std::int64_t> fractions;
  for (const std::int64_t raw :
       {all_fine / 4, all_fine / 2, (3 * all_fine) / 4}) {
    const std::int64_t clamped = std::max<std::int64_t>(1, raw);
    if (std::find(fractions.begin(), fractions.end(), clamped) ==
        fractions.end()) {
      fractions.push_back(clamped);
    }
  }
  return fractions;
}

}  // namespace

int worker_count(std::size_t jobs, int requested) {
  int threads = requested > 0
                    ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min<int>(threads, static_cast<int>(jobs)));
}

std::optional<PlatformGrid> parse_platform_grid(std::string_view spec) {
  const std::size_t cross = spec.find('x');
  if (cross == std::string_view::npos) return std::nullopt;
  if (spec.find('x', cross + 1) != std::string_view::npos) return std::nullopt;

  const std::string areas_part(spec.substr(0, cross));
  const std::string counts_part(spec.substr(cross + 1));
  // std::sto* skip leading whitespace; the spec grammar does not.
  auto strict = [](const std::string& item) {
    return !item.empty() &&
           !std::isspace(static_cast<unsigned char>(item.front()));
  };

  PlatformGrid grid;
  grid.areas.clear();
  grid.cgc_counts.clear();
  for (const std::string& item : split(areas_part)) {
    if (!strict(item)) return std::nullopt;
    try {
      std::size_t used = 0;
      const double area = std::stod(item, &used);
      if (used != item.size()) return std::nullopt;
      if (!std::isfinite(area) || area <= 0) return std::nullopt;
      grid.areas.push_back(area);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  for (const std::string& item : split(counts_part)) {
    if (!strict(item)) return std::nullopt;
    try {
      std::size_t used = 0;
      const int count = std::stoi(item, &used);
      if (used != item.size()) return std::nullopt;
      if (count < 1 || count > 1024) return std::nullopt;
      grid.cgc_counts.push_back(count);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return grid;
}

std::size_t sweep_cells_per_shard(const SweepSpec& spec) {
  const std::size_t constraint_slots =
      spec.constraints.empty() ? 3 : spec.constraints.size();
  return constraint_slots * sweep_energy_budgets(spec).size() *
         spec.strategies.size() * spec.orderings.size();
}

std::size_t sweep_shard_count(const std::vector<CorpusApp>& corpus,
                              const SweepSpec& spec) {
  return corpus.size() * spec.grid.size();
}

std::vector<double> sweep_energy_budgets(const SweepSpec& spec) {
  return spec.energy_budgets.empty()
             ? std::vector<double>{spec.base.cost.energy_budget_pj}
             : spec.energy_budgets;
}

SweepShardCoords sweep_shard_coords(const SweepSpec& spec, std::size_t shard) {
  const std::size_t platform_index = shard % spec.grid.size();
  SweepShardCoords coords;
  coords.app = shard / spec.grid.size();
  coords.a_fpga = spec.grid.areas[platform_index / spec.grid.cgc_counts.size()];
  coords.cgcs =
      spec.grid.cgc_counts[platform_index % spec.grid.cgc_counts.size()];
  coords.platform = platform::make_paper_platform(coords.a_fpga, coords.cgcs);
  coords.platform_cost = platform::platform_cost(coords.platform);
  return coords;
}

void fill_slot_coords(const SweepSpec& spec, const std::vector<double>& budgets,
                      const SweepShardCoords& shard, std::size_t slot,
                      SweepCell& cell) {
  const std::size_t orderings = spec.orderings.size();
  const std::size_t strategies = spec.strategies.size();
  cell.app = shard.app;
  cell.a_fpga = shard.a_fpga;
  cell.cgcs = shard.cgcs;
  cell.platform_cost = shard.platform_cost;
  cell.energy_budget_pj =
      budgets[(slot / (orderings * strategies)) % budgets.size()];
  cell.strategy = spec.strategies[(slot / orderings) % strategies];
  cell.ordering = spec.orderings[slot % orderings];
}

void validate_sweep_inputs(const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec) {
  require(!corpus.empty(), "sweep_design_space: empty corpus");
  require(!spec.grid.areas.empty() && !spec.grid.cgc_counts.empty(),
          "sweep_design_space: empty platform grid");
  require(!spec.strategies.empty() && !spec.orderings.empty(),
          "sweep_design_space: empty strategy/ordering grid");
  // App names key the JSON app_pareto map; duplicates would emit
  // duplicate keys.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t j = i + 1; j < corpus.size(); ++j) {
      require(corpus[i].name != corpus[j].name,
              "sweep_design_space: duplicate corpus app name '",
              corpus[i].name, "'");
    }
  }
}

std::vector<Fingerprint> sweep_app_fingerprints(
    const std::vector<CorpusApp>& corpus) {
  std::vector<Fingerprint> app_fps;
  app_fps.reserve(corpus.size());
  for (const CorpusApp& app : corpus) {
    app_fps.push_back(app_fingerprint(app.cdfg, app.profile));
  }
  return app_fps;
}

std::size_t compute_sweep_shard(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec, std::size_t shard,
                                SweepCell* slots, AxisMemo& memo) {
  SweepCache* cache = spec.cache;
  const std::vector<double> budgets = sweep_energy_budgets(spec);
  const SweepShardCoords coords = sweep_shard_coords(spec, shard);
  const CorpusApp& app = corpus[coords.app];
  memo.bind(app.cdfg, app.profile);

  Fingerprint platform_fp;
  Fingerprint group_key;
  if (cache) {
    platform_fp = fingerprint(coords.platform);
    group_key = shard_key(memo.app_key(), platform_fp);
  }

  // The mapper, a view over the memo's tables, is taken only when some
  // cell of this group misses: a fully warm group counts no build.
  std::optional<HybridMapper> mapper;
  auto ensure_mapper = [&]() -> HybridMapper& {
    if (!mapper) {
      mapper.emplace(memo.mapper(coords.platform));
      if (cache) cache->count_mapper_build();
    }
    return *mapper;
  };

  std::vector<std::int64_t> constraints = spec.constraints;
  if (constraints.empty()) {
    std::optional<std::int64_t> all_fine =
        cache ? cache->find_all_fine(group_key) : std::nullopt;
    if (!all_fine) {
      all_fine = ensure_mapper().all_fine_cycles(app.profile);
      if (cache) cache->store_all_fine(group_key, *all_fine);
    }
    constraints = default_constraints(*all_fine);
  }
  const std::size_t strategy_count = spec.strategies.size();
  const std::size_t ordering_count = spec.orderings.size();
  const std::size_t used =
      constraints.size() * budgets.size() * strategy_count * ordering_count;

  // One walk per (strategy, ordering) pair prices the shard's
  // constraints x budgets axis, less its cached cells.
  for (std::size_t si = 0; si < strategy_count; ++si) {
    for (std::size_t oi = 0; oi < ordering_count; ++oi) {
      MethodologyOptions options = spec.base;
      options.strategy = spec.strategies[si];
      options.ordering = spec.orderings[oi];
      std::vector<std::size_t> missed;
      std::vector<AxisCell> axis;
      for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
        for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
          const std::size_t index =
              ((ci * budgets.size() + bi) * strategy_count + si) *
                  ordering_count +
              oi;
          SweepCell& cell = slots[index];
          fill_slot_coords(spec, budgets, coords, index, cell);
          cell.constraint = constraints[ci];
          if (cache) {
            options.cost.energy_budget_pj = budgets[bi];
            const Fingerprint key =
                cell_key(memo.app_key(), platform_fp, options, constraints[ci]);
            if (std::optional<CachedCell> hit = cache->find_cell(key)) {
              cell.report = std::move(hit->report);
              cell.moved_names = std::move(hit->moved_names);
              continue;
            }
          }
          missed.push_back(index);
          axis.push_back({constraints[ci], budgets[bi]});
        }
      }
      if (missed.empty()) continue;
      const std::vector<PartitionReport> reports =
          run_methodology_axis(ensure_mapper(), app.profile, axis, options,
                               &memo);
      for (std::size_t m = 0; m < missed.size(); ++m) {
        SweepCell& cell = slots[missed[m]];
        cell.report = reports[m];
        cell.moved_names = moved_block_names(app.cdfg, cell.report);
        if (cache) {
          options.cost.energy_budget_pj = cell.energy_budget_pj;
          CachedCell fresh;
          fresh.report = cell.report;
          fresh.moved_names = cell.moved_names;
          cache->store_cell(
              cell_key(memo.app_key(), platform_fp, options, cell.constraint),
              std::move(fresh));
        }
      }
    }
  }
  return used;
}

void finalize_sweep_summary(SweepSummary& summary,
                            const std::vector<std::size_t>& shard_used,
                            std::size_t cells_per_shard) {
  // Drop the unused tail slots of shards whose default constraints
  // collapsed (a shard's filled cells are the contiguous prefix of its
  // slot range — the constraint index is the outermost layout axis).
  // A no-op whenever every shard filled its capacity.
  const std::size_t shards = shard_used.size();
  std::size_t used_total = 0;
  for (const std::size_t used : shard_used) used_total += used;
  if (used_total != summary.cells.size()) {
    std::vector<SweepCell> compact;
    compact.reserve(used_total);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const auto begin =
          summary.cells.begin() +
          static_cast<std::ptrdiff_t>(shard * cells_per_shard);
      std::move(begin, begin + static_cast<std::ptrdiff_t>(shard_used[shard]),
                std::back_inserter(compact));
    }
    summary.cells = std::move(compact);
  }

  // Pareto fronts over (final cycles, kernels moved, platform cost,
  // energy pJ), all minimized: one per app and one merged over every
  // cell. The platform-cost axis folds in the per-cell floorplan charge
  // (zero under the additive cost model, so pre-v3 fronts are
  // unchanged): a cheaper chip that forces expensive module placement
  // should not dominate a costlier one that does not.
  //
  // Sort-filter skyline (Chomicki et al., "Skyline with presorting",
  // ICDE 2003). A dominator is <= on every key and < on one, so it sorts
  // strictly before every cell it dominates in lexicographic key order;
  // by transitivity a cell is dominated exactly when a front cell
  // already seen dominates it. O(n log n + n * |front|), not O(n^2).
  struct Point {
    std::int64_t cycles;
    std::size_t moved;
    double cost;
    double energy_pj;
    std::size_t cell;
  };
  auto dominates = [](const Point& b, const Point& a) {
    const bool no_worse = b.cycles <= a.cycles && b.moved <= a.moved &&
                          b.cost <= a.cost && b.energy_pj <= a.energy_pj;
    const bool better = b.cycles < a.cycles || b.moved < a.moved ||
                        b.cost < a.cost || b.energy_pj < a.energy_pj;
    return no_worse && better;
  };
  std::vector<Point> sorted;
  sorted.reserve(summary.cells.size());
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    SweepCell& cell = summary.cells[i];
    const Point point{cell.report.final_cycles, cell.report.moved.size(),
                      cell.platform_cost + cell.report.floorplan_cost,
                      cell.report.energy.total_pj(), i};
    if (std::isnan(point.cost) || std::isnan(point.energy_pj)) {
      // Every comparison with NaN is false: such a cell is never
      // dominated and dominates nothing. It also cannot be sorted.
      cell.on_app_pareto = true;
      cell.on_global_pareto = true;
    } else {
      sorted.push_back(point);
    }
  }
  std::sort(sorted.begin(), sorted.end(), [](const Point& x, const Point& y) {
    return std::tie(x.cycles, x.moved, x.cost, x.energy_pj) <
           std::tie(y.cycles, y.moved, y.cost, y.energy_pj);
  });
  auto dominated_by = [&](const std::vector<Point>& front, const Point& p) {
    return std::any_of(front.begin(), front.end(),
                       [&](const Point& f) { return dominates(f, p); });
  };
  std::vector<Point> global_front;
  std::vector<std::vector<Point>> app_fronts(summary.apps.size());
  for (const Point& point : sorted) {
    SweepCell& cell = summary.cells[point.cell];
    std::vector<Point>& app_front = app_fronts[cell.app];
    if (!dominated_by(global_front, point)) {
      global_front.push_back(point);
      cell.on_global_pareto = true;
    } else if (dominated_by(app_front, point)) {
      continue;
    }
    app_front.push_back(point);
    cell.on_app_pareto = true;
  }

  summary.app_pareto.resize(summary.apps.size());
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& cell = summary.cells[i];
    if (cell.on_app_pareto) summary.app_pareto[cell.app].push_back(i);
    if (cell.on_global_pareto) summary.global_pareto.push_back(i);
  }
}

void compute_sweep_shards(const std::vector<CorpusApp>& corpus,
                          const SweepSpec& spec,
                          const std::vector<std::size_t>& shards,
                          const ShardSink& sink) {
  const std::size_t cells_per_shard = sweep_cells_per_shard(spec);
  const int threads = worker_count(shards.size(), spec.threads);

  // Shards are claimed in list order. A failed shard stops the claiming,
  // so every shard before it is already claimed and will finish: the
  // caller's in-order walk reaches the first failure in list order and
  // never waits on an unclaimed shard.
  struct Pending {
    std::vector<SweepCell> cells;
    std::size_t used = 0;
    std::exception_ptr failure;
    bool done = false;
  };
  std::vector<Pending> pending(shards.size());
  std::mutex mutex;
  std::condition_variable ready;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  // Claims and computes the next shard; false once none is left to claim.
  auto compute_next = [&](AxisMemo& memo) {
    if (stop.load()) return false;
    const std::size_t job = next.fetch_add(1);
    if (job >= shards.size()) return false;
    std::vector<SweepCell> cells(cells_per_shard);
    std::size_t used = 0;
    std::exception_ptr failure;
    try {
      used = compute_sweep_shard(corpus, spec, shards[job], cells.data(), memo);
    } catch (...) {
      failure = std::current_exception();
      stop.store(true);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      pending[job] = Pending{std::move(cells), used, failure, true};
    }
    ready.notify_all();
    return true;
  };

  std::vector<std::thread> helpers;
  std::exception_ptr failure;
  try {
    helpers.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) {
      helpers.emplace_back([&] {
        AxisMemo memo;
        while (compute_next(memo)) {
        }
      });
    }
    // The caller computes too, and between its shards hands every
    // finished one to `sink` in list order.
    AxisMemo memo;
    for (std::size_t job = 0; job < shards.size(); ++job) {
      std::unique_lock<std::mutex> lock(mutex);
      while (!pending[job].done) {
        lock.unlock();
        const bool computed = compute_next(memo);
        lock.lock();
        if (!computed) ready.wait(lock, [&] { return pending[job].done; });
      }
      Pending shard = std::move(pending[job]);
      lock.unlock();
      if (shard.failure) {
        failure = shard.failure;
        break;
      }
      sink(job, shard.cells, shard.used);
    }
  } catch (...) {
    failure = std::current_exception();
  }
  stop.store(true);
  for (std::thread& t : helpers) t.join();
  if (failure) std::rethrow_exception(failure);
}

SweepSummary sweep_design_space(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec) {
  validate_sweep_inputs(corpus, spec);

  // Every cell has a fixed slot, so scheduling cannot reorder anything;
  // finalize_sweep_summary drops the tail slots a shard left unused.
  const std::size_t cells_per_shard = sweep_cells_per_shard(spec);
  const std::size_t shards = sweep_shard_count(corpus, spec);

  SweepSummary summary;
  summary.apps.reserve(corpus.size());
  for (const CorpusApp& app : corpus) summary.apps.push_back(app.name);
  summary.cells.resize(shards * cells_per_shard);

  std::vector<std::size_t> shard_used(shards, 0);
  std::vector<std::size_t> all(shards);
  std::iota(all.begin(), all.end(), std::size_t{0});
  compute_sweep_shards(
      corpus, spec, all,
      [&](std::size_t shard, std::vector<SweepCell>& cells, std::size_t used) {
        std::move(cells.begin(), cells.end(),
                  summary.cells.begin() +
                      static_cast<std::ptrdiff_t>(shard * cells_per_shard));
        shard_used[shard] = used;
      });

  finalize_sweep_summary(summary, shard_used, cells_per_shard);
  return summary;
}

std::string describe(const SweepSummary& summary) {
  TextTable table({"app", "A_FPGA", "CGCs", "constraint", "strategy",
                   "ordering", "moved", "final cycles", "% reduction",
                   "energy nJ", "met", "pareto"});
  std::size_t on_app_front = 0;
  for (const SweepCell& cell : summary.cells) {
    on_app_front += cell.on_app_pareto ? 1 : 0;
    const PartitionReport& r = cell.report;
    table.cell(summary.apps[cell.app])
        .cell(text::General{cell.a_fpga, 6})
        .cell(cell.cgcs)
        .cell(text::Thousands{cell.constraint})
        .cell(strategy_name(cell.strategy))
        .cell(kernel_ordering_name(cell.ordering))
        .cell(r.moved.size())
        .cell(text::Thousands{r.final_cycles})
        .cell(text::Fixed{r.reduction_percent(), 1})
        .cell(text::Fixed{r.energy.total_pj() / 1000.0, 1})
        .cell(r.met ? "yes" : "no")
        .cell(cell.on_global_pareto ? "**"
              : cell.on_app_pareto  ? "*"
                                    : "")
        .end_row();
  }
  std::string out = table.to_string();
  text::append(out, on_app_front, " of ", summary.cells.size(),
               " cells on a per-app pareto front, ",
               summary.global_pareto.size(),
               " on the merged global front "
               "(final cycles vs kernels moved vs platform cost vs energy)\n");
  return out;
}

}  // namespace amdrel::core
