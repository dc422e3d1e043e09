// Platform-grid x corpus sweep: grid-spec parsing, cell enumeration
// order, Pareto-front invariants, the cross-check property that pins
// the sharded, axis-batched sweep to the paper's flow — every cell must
// be identical to an independent run_methodology call — the
// single-app, single-platform exploration as a one-shard sweep, and the
// Pareto skyline against the all-pairs oracle on synthetic cells.

#include "core/explorer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "pareto_oracle.h"
#include "support/error.h"
#include "support/text.h"
#include "synth/cdfg_generator.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

using workloads::build_ofdm_model;
using workloads::paper_corpus;

TEST(PlatformGridTest, ParsesAreasCrossCgcCounts) {
  const auto grid = parse_platform_grid("1500,5000x2,3");
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->areas, (std::vector<double>{1500, 5000}));
  EXPECT_EQ(grid->cgc_counts, (std::vector<int>{2, 3}));
  EXPECT_EQ(grid->size(), 4u);
}

TEST(PlatformGridTest, ParsesSingleCell) {
  const auto grid = parse_platform_grid("800x1");
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->size(), 1u);
  EXPECT_EQ(grid->areas.front(), 800);
  EXPECT_EQ(grid->cgc_counts.front(), 1);
}

TEST(PlatformGridTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",          "1500",        "x",         "1500x",     "x2",
      "1500x2x3",  "1500,x2",     "1500x2,",   "a,bx2",     "1500x2.5",
      "-1500x2",   "0x2",         "1500x0",    "1500x-2",   "1500x9999",
      "nanx2",     "infx2",       "1500 x2",   "1500x 2",   "1,,2x3",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(parse_platform_grid(spec).has_value()) << "'" << spec << "'";
  }
}

TEST(PlatformCostTest, AreaPlusCgcNodeEquivalent) {
  // Default fine-grain areas: MUL 60 + ALU 12 = 72 per CGC node; a 2x2
  // CGC adds 288 area-equivalent units.
  EXPECT_DOUBLE_EQ(
      platform::platform_cost(platform::make_paper_platform(1500, 2)),
      1500 + 2 * 4 * 72.0);
  EXPECT_DOUBLE_EQ(
      platform::platform_cost(platform::make_paper_platform(5000, 3)),
      5000 + 3 * 4 * 72.0);
}

TEST(SweepTest, CellOrderIsAppMajorThenPlatformThenEngineGrid) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.constraints = {50'000, 200'000};
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kAnnealing};
  spec.orderings = {KernelOrdering::kWeightDescending,
                    KernelOrdering::kBenefitDescending};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);
  ASSERT_EQ(summary.apps, (std::vector<std::string>{"ofdm", "jpeg"}));
  ASSERT_EQ(summary.cells.size(), 2u * 4u * 2u * 2u * 2u);
  std::size_t index = 0;
  for (std::size_t app = 0; app < corpus.size(); ++app) {
    for (const double area : spec.grid.areas) {
      for (const int cgcs : spec.grid.cgc_counts) {
        for (const std::int64_t constraint : spec.constraints) {
          for (const StrategyKind strategy : spec.strategies) {
            for (const KernelOrdering ordering : spec.orderings) {
              const SweepCell& cell = summary.cells[index++];
              EXPECT_EQ(cell.app, app);
              EXPECT_EQ(cell.a_fpga, area);
              EXPECT_EQ(cell.cgcs, cgcs);
              EXPECT_EQ(cell.constraint, constraint);
              EXPECT_EQ(cell.strategy, strategy);
              EXPECT_EQ(cell.ordering, ordering);
            }
          }
        }
      }
    }
  }
}

// The tentpole property: random platform grids, batched sweep vs one
// standalone run_methodology call per cell, each on a freshly built
// mapper — every cell must carry the same report, rendered
// byte-identical.
class SweepCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepCrossCheck, CellsEqualStandaloneExplorerRuns) {
  std::mt19937_64 rng(GetParam());
  const std::vector<double> area_pool = {800, 1500, 3000, 5000, 8000};
  const std::vector<int> cgc_pool = {1, 2, 3, 4};

  SweepSpec spec;
  spec.grid.areas.clear();
  spec.grid.cgc_counts.clear();
  const std::size_t n_areas = 1 + rng() % 3;
  const std::size_t n_cgcs = 1 + rng() % 2;
  for (std::size_t i = 0; i < n_areas; ++i) {
    spec.grid.areas.push_back(area_pool[rng() % area_pool.size()]);
  }
  for (std::size_t i = 0; i < n_cgcs; ++i) {
    spec.grid.cgc_counts.push_back(cgc_pool[rng() % cgc_pool.size()]);
  }
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kExhaustive};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.base.exhaustive_max_kernels = 10;
  spec.threads = 3;

  std::vector<CorpusApp> corpus(2);
  workloads::PaperApp ofdm = build_ofdm_model();
  corpus[0].name = "ofdm";
  corpus[0].cdfg = std::move(ofdm.cdfg);
  corpus[0].profile = std::move(ofdm.profile);
  synth::CdfgGenConfig config;
  config.segments = 4;
  config.seed = GetParam();
  synth::SyntheticApp synthetic = synth::generate_app(config);
  corpus[1].name = "synthetic";
  corpus[1].cdfg = std::move(synthetic.cdfg);
  corpus[1].profile = std::move(synthetic.profile);

  const auto summary = sweep_design_space(corpus, spec);

  // Walk the grid in cell order — default constraints are the quarter
  // points of each (app, platform) pair's all-fine-grain cycles — and
  // replay every cell as its own run_methodology call.
  std::size_t index = 0;
  for (std::size_t a = 0; a < corpus.size(); ++a) {
    const CorpusApp& app = corpus[a];
    for (const double area : spec.grid.areas) {
      for (const int cgcs : spec.grid.cgc_counts) {
        const auto p = platform::make_paper_platform(area, cgcs);
        const std::int64_t all_fine =
            HybridMapper(app.cdfg, p).all_fine_cycles(app.profile);
        for (const std::int64_t constraint :
             {all_fine / 4, all_fine / 2, (3 * all_fine) / 4}) {
          for (const StrategyKind strategy : spec.strategies) {
            for (const KernelOrdering ordering : spec.orderings) {
              ASSERT_LT(index, summary.cells.size());
              const SweepCell& cell = summary.cells[index++];
              EXPECT_EQ(cell.app, a);
              EXPECT_EQ(cell.a_fpga, area);
              EXPECT_EQ(cell.cgcs, cgcs);
              EXPECT_EQ(cell.constraint, constraint);
              EXPECT_EQ(cell.strategy, strategy);
              EXPECT_EQ(cell.ordering, ordering);
              MethodologyOptions options = spec.base;
              options.strategy = strategy;
              options.ordering = ordering;
              options.cost.energy_budget_pj = cell.energy_budget_pj;
              const PartitionReport expected = run_methodology(
                  app.cdfg, app.profile, p, constraint, options);
              EXPECT_EQ(cell.report.moved, expected.moved);
              EXPECT_EQ(cell.report.final_cycles, expected.final_cycles);
              EXPECT_EQ(cell.report.met, expected.met);
              EXPECT_EQ(cell.report.engine_iterations,
                        expected.engine_iterations);
              // Byte-identical when rendered through the same report path.
              EXPECT_EQ(describe(cell.report, app.cdfg),
                        describe(expected, app.cdfg));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(index, summary.cells.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(SweepTest, ParetoFrontInvariants) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);

  expect_oracle_fronts(summary);
  ASSERT_EQ(summary.app_pareto.size(), corpus.size());
  for (std::size_t app = 0; app < corpus.size(); ++app) {
    EXPECT_FALSE(summary.app_pareto[app].empty());
    for (const std::size_t i : summary.app_pareto[app]) {
      ASSERT_LT(i, summary.cells.size());
      EXPECT_EQ(summary.cells[i].app, app);
      EXPECT_TRUE(summary.cells[i].on_app_pareto);
      for (const SweepCell& other : summary.cells) {
        if (other.app != app) continue;
        EXPECT_FALSE(oracle_dominates(other, summary.cells[i]));
      }
    }
  }
  EXPECT_FALSE(summary.global_pareto.empty());
  for (const std::size_t i : summary.global_pareto) {
    EXPECT_TRUE(summary.cells[i].on_global_pareto);
    // Global front cells are on their app's front too (app cells are a
    // subset of all cells).
    EXPECT_TRUE(summary.cells[i].on_app_pareto);
    for (const SweepCell& other : summary.cells) {
      EXPECT_FALSE(oracle_dominates(other, summary.cells[i]));
    }
  }
  // Off-front cells are dominated by a same-app cell.
  for (const SweepCell& cell : summary.cells) {
    if (cell.on_app_pareto) continue;
    bool dominated = false;
    for (const SweepCell& other : summary.cells) {
      if (other.app != cell.app) continue;
      dominated = dominated || oracle_dominates(other, cell);
    }
    EXPECT_TRUE(dominated);
  }
}

TEST(SweepTest, MovedNamesMatchReportBlocks) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  for (const SweepCell& cell : summary.cells) {
    ASSERT_EQ(cell.moved_names.size(), cell.report.moved.size());
    for (std::size_t m = 0; m < cell.moved_names.size(); ++m) {
      EXPECT_EQ(cell.moved_names[m],
                corpus[cell.app].cdfg.block(cell.report.moved[m]).name);
    }
  }
}

TEST(SweepTest, EmptyCorpusAndEmptyGridRejected) {
  const auto corpus = paper_corpus();
  EXPECT_THROW(sweep_design_space({}, SweepSpec{}), Error);
  SweepSpec no_grid;
  no_grid.grid.areas.clear();
  EXPECT_THROW(sweep_design_space(corpus, no_grid), Error);
  SweepSpec no_strategies;
  no_strategies.strategies.clear();
  EXPECT_THROW(sweep_design_space(corpus, no_strategies), Error);

  // Duplicate app names would emit duplicate JSON app_pareto keys.
  auto duplicated = paper_corpus();
  duplicated[1].name = duplicated[0].name;
  SweepSpec tiny;
  tiny.strategies = {StrategyKind::kGreedyPaper};
  EXPECT_THROW(sweep_design_space(duplicated, tiny), Error);
}

// A shard that throws on a pool thread fails the sweep with the error a
// one-thread run reports, the first failing shard in shard order, instead
// of escaping the thread and aborting the process. Shard 0 (A_FPGA 1500)
// succeeds; shards 1 and 2 cannot place a multiplier and fail fast, in
// either order in time.
TEST(SweepTest, FailingShardRethrowsFirstFailureInShardOrder) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 10, 20};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  auto failure = [&](int threads) {
    spec.threads = threads;
    try {
      sweep_design_space(corpus, spec);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string serial = failure(1);
  EXPECT_NE(serial.find("exceeds A_FPGA = 10"), std::string::npos) << serial;
  for (const int threads : {2, 4}) {
    for (int round = 0; round < 5; ++round) {
      EXPECT_EQ(failure(threads), serial) << threads << " threads";
    }
  }
}

// A throwing sink stops the pool too: no later shard reaches the sink,
// the threads are joined and the sink's error propagates.
TEST(SweepTest, ThrowingSinkStopsThePool) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  std::vector<std::size_t> shards(sweep_shard_count(corpus, spec));
  std::iota(shards.begin(), shards.end(), std::size_t{0});
  for (const int threads : {1, 4}) {
    spec.threads = threads;
    std::vector<std::size_t> seen;
    EXPECT_THROW(compute_sweep_shards(
                     corpus, spec, shards,
                     [&](std::size_t index, std::vector<SweepCell>&,
                         std::size_t) {
                       seen.push_back(index);
                       if (index == 1) fail("sink failed");
                     }),
                 Error);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1})) << threads << " threads";
  }
}

// The caller computes shards too, but every shard reaches the sink on
// the calling thread, in list order, with the cells sweep_design_space
// gives that shard. The list is a reversed subset, like a serve retry
// batch.
TEST(SweepTest, SinkRunsOnTheCallingThreadInListOrder) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.orderings = {KernelOrdering::kWeightDescending,
                    KernelOrdering::kBenefitDescending};
  spec.base.anneal_iterations = 300;
  const SweepSummary whole = sweep_design_space(corpus, spec);
  const std::size_t per_shard = sweep_cells_per_shard(spec);
  ASSERT_EQ(whole.cells.size(), sweep_shard_count(corpus, spec) * per_shard);
  auto cell_bytes = [](const SweepCell& cell) {
    return text::render(cell.app, ' ', text::General{cell.a_fpga, 17}, ' ',
                        cell.cgcs, ' ', cell.constraint, ' ',
                        text::General{cell.energy_budget_pj, 17}, ' ',
                        strategy_name(cell.strategy), ' ',
                        kernel_ordering_name(cell.ordering), ' ',
                        CellPayload{cell.report, cell.moved_names});
  };

  std::vector<std::size_t> shards;
  for (std::size_t shard = sweep_shard_count(corpus, spec); shard-- > 0;) {
    if (shard % 3 != 1) shards.push_back(shard);
  }
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {1, 2, 4}) {
    spec.threads = threads;
    std::vector<std::size_t> seen;
    compute_sweep_shards(
        corpus, spec, shards,
        [&](std::size_t index, std::vector<SweepCell>& cells,
            std::size_t used) {
          EXPECT_EQ(std::this_thread::get_id(), caller) << threads;
          seen.push_back(index);
          ASSERT_EQ(used, per_shard) << threads;
          for (std::size_t i = 0; i < used; ++i) {
            EXPECT_EQ(cell_bytes(cells[i]),
                      cell_bytes(whole.cells[shards[index] * per_shard + i]))
                << threads << " threads, shard " << shards[index];
          }
        });
    std::vector<std::size_t> expected(shards.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(seen, expected) << threads << " threads";
  }
}

// Each pool thread shares walks only with the shards it computes itself,
// so the thread count changes which walks hit. On a grid past the paper
// models' saturation points (A_FPGA 9000, eight CGCs) the bytes must not
// change, under the timing objective and under energy with
// reconfiguration pricing.
TEST(SweepTest, SaturatedSweepIsByteIdenticalForAnyThreadCount) {
  const auto corpus = paper_corpus();
  for (const bool energy : {false, true}) {
    SweepSpec spec;
    spec.grid.areas = {600, 1500, 5000, 9000};
    spec.grid.cgc_counts = {1, 2, 4, 8};
    spec.orderings = {KernelOrdering::kWeightDescending,
                      KernelOrdering::kBenefitDescending};
    spec.base.exhaustive_max_kernels = 10;
    if (energy) {
      spec.base.cost.objective.kind = ObjectiveKind::kEnergy;
      spec.base.cost.reconfig.bitstream_cycles_per_unit = 2;
      spec.energy_budgets = {1.0e6, 1.18e8};
    }
    spec.threads = 1;
    const SweepSummary serial = sweep_design_space(corpus, spec);
    spec.threads = 4;
    const SweepSummary pooled = sweep_design_space(corpus, spec);
    EXPECT_EQ(sweep_to_json(pooled), sweep_to_json(serial)) << energy;
    EXPECT_EQ(sweep_to_csv(pooled), sweep_to_csv(serial)) << energy;
  }
}

TEST(SweepTest, EnergyBudgetAxisMultipliesCells) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500};
  spec.grid.cgc_counts = {2};
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.base.cost.objective.kind = ObjectiveKind::kEnergy;
  spec.energy_budgets = {1.0e6, 7.0e5};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  // app x platform x constraint x BUDGET x strategy x ordering.
  ASSERT_EQ(summary.cells.size(), 2u * 1u * 1u * 2u * 1u * 1u);
  EXPECT_EQ(summary.cells[0].energy_budget_pj, 1.0e6);
  EXPECT_EQ(summary.cells[1].energy_budget_pj, 7.0e5);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.report.objective, ObjectiveKind::kEnergy);
    EXPECT_EQ(cell.report.energy_budget_pj, cell.energy_budget_pj);
    // met is the energy test under kEnergy.
    EXPECT_EQ(cell.report.met,
              cell.report.energy.total_pj() <= cell.energy_budget_pj);
  }
  // OFDM: 1e6 pJ is reachable after one move, 7e5 pJ needs four.
  EXPECT_TRUE(summary.cells[0].report.met);
  EXPECT_EQ(summary.cells[0].report.moved.size(), 1u);
  EXPECT_TRUE(summary.cells[1].report.met);
  EXPECT_EQ(summary.cells[1].report.moved.size(), 4u);
}

TEST(SweepTest, EnergyParetoAxisKeepsLowEnergyCells) {
  // Two cells with identical cycles/moves/platform cost but different
  // energy: the energy axis must keep the cheaper one undominated. The
  // timing-driven OFDM split at A=1500 vs A=5000 differs in reconfig
  // energy only when the timing results coincide — so instead compare
  // via the JSON-visible invariant: every cell beaten on all four axes
  // is off the front.
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& a = summary.cells[i];
    bool dominated = false;
    for (const SweepCell& b : summary.cells) {
      if (&b == &a) continue;
      const bool no_worse =
          b.report.final_cycles <= a.report.final_cycles &&
          b.report.moved.size() <= a.report.moved.size() &&
          b.platform_cost <= a.platform_cost &&
          b.report.energy.total_pj() <= a.report.energy.total_pj();
      const bool better =
          b.report.final_cycles < a.report.final_cycles ||
          b.report.moved.size() < a.report.moved.size() ||
          b.platform_cost < a.platform_cost ||
          b.report.energy.total_pj() < a.report.energy.total_pj();
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    EXPECT_EQ(a.on_global_pareto, !dominated) << "cell " << i;
  }
}

TEST(SweepTest, EnergySweepCachedEqualsUncachedAnyThreads) {
  const auto corpus = paper_corpus();
  auto spec = [&](int threads, SweepCache* cache) {
    SweepSpec s;
    s.grid.areas = {1500, 5000};
    s.grid.cgc_counts = {2};
    s.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kExhaustive};
    s.orderings = {KernelOrdering::kWeightDescending};
    s.base.cost.objective.kind = ObjectiveKind::kEnergy;
    s.base.exhaustive_max_kernels = 10;
    s.energy_budgets = {1.0e6, 1.18e8};
    s.threads = threads;
    s.cache = cache;
    return s;
  };
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, spec(2, nullptr)));
  SweepCache cache;
  const auto cold = sweep_design_space(corpus, spec(2, &cache));
  EXPECT_EQ(sweep_to_json(cold), uncached);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    const SweepCacheStats before = cache.stats();
    const auto warm = sweep_design_space(corpus, spec(threads, &cache));
    EXPECT_EQ(sweep_to_json(warm), uncached) << threads << " threads";
    EXPECT_EQ(cache.stats().cell_misses, before.cell_misses)
        << threads << " threads";
    EXPECT_EQ(cache.stats().mapper_builds, before.mapper_builds)
        << threads << " threads";
  }
  // And across a persistence round trip: energy doubles are stored as
  // bit patterns, so the reloaded cache serves byte-identical cells.
  const std::string path = testing::TempDir() + "energy_sweep_cache.jsonl";
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  SweepCache fresh;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  const auto reloaded = sweep_design_space(corpus, spec(2, &fresh));
  EXPECT_EQ(sweep_to_json(reloaded), uncached);
  EXPECT_EQ(fresh.stats().cell_misses, 0u);
  std::remove(path.c_str());
}

TEST(SweepIoTest, JsonEmitsEnergyColumns) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500};
  spec.grid.cgc_counts = {2};
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  const std::string json = sweep_to_json(summary);
  EXPECT_NE(json.find("\"objective\": \"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_budget_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"initial_energy_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"energy_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"energy_reduction_percent\": "), std::string::npos);
  const std::string csv = sweep_to_csv(summary);
  EXPECT_NE(csv.find(",objective,energy_budget_pj,"), std::string::npos);
  EXPECT_NE(csv.find(",initial_energy_pj,energy_pj,"), std::string::npos);
}

TEST(SweepIoTest, JsonDeclaresSchemaVersionAndCellCountMatchesCsv) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  const std::string json = sweep_to_json(summary);
  EXPECT_NE(json.find("\"schema_version\": " +
                      std::to_string(kSweepSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"apps\": [\"ofdm\", \"jpeg\"]"), std::string::npos);

  const std::string csv = sweep_to_csv(summary);
  const std::size_t csv_rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(csv_rows, summary.cells.size() + 1);  // header + one per cell
}

/// A one-block app that never executes (empty profile), so its
/// all-fine cycle count is 0 and the default 1/4, 1/2, 3/4 constraint
/// fractions all round down to 0.
CorpusApp tiny_app() {
  CorpusApp tiny;
  tiny.name = "tiny";
  tiny.cdfg = ir::Cdfg("tiny");
  const ir::BlockId b = tiny.cdfg.add_block();
  ir::Dfg& dfg = tiny.cdfg.block(b).dfg;
  const ir::NodeId in = dfg.add_node(ir::OpKind::kInput);
  const ir::NodeId sum = dfg.add_node(ir::OpKind::kAdd, {in, in});
  dfg.add_node(ir::OpKind::kOutput, {sum});
  tiny.cdfg.set_entry(b);
  return tiny;
}

TEST(SweepTest, TinyAppDefaultConstraintSlotsCompacted) {
  // One corpus app whose all-fine cycle count collapses the default 1/4,
  // 1/2, 3/4 fractions to the single clamped constraint 1 (see
  // ExplorerTest.TinyAppDefaultConstraintsClampAndDedupe), swept next to
  // OFDM whose fractions stay distinct: the tiny app's shards fill one
  // constraint slot each and the unused tail must be compacted away, not
  // emitted as uninitialized cells.
  std::vector<CorpusApp> corpus;
  corpus.push_back(tiny_app());
  const workloads::PaperApp ofdm = build_ofdm_model();
  corpus.push_back({"ofdm", ofdm.cdfg, ofdm.profile});

  SweepSpec spec;  // default constraints
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);

  // tiny: 2 platforms x 1 deduped constraint; ofdm: 2 platforms x 3.
  ASSERT_EQ(summary.cells.size(), 2u * 1u + 2u * 3u);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_GE(cell.constraint, 1) << summary.apps[cell.app];
    if (cell.app == 0) {
      EXPECT_EQ(cell.constraint, 1);
    }
  }
  // App-major cell order survives the compaction.
  EXPECT_EQ(summary.cells[0].app, 0u);
  EXPECT_EQ(summary.cells[1].app, 0u);
  for (std::size_t i = 2; i < summary.cells.size(); ++i) {
    EXPECT_EQ(summary.cells[i].app, 1u);
  }
  // The emitted formats agree with the compacted cell count.
  const std::string csv = sweep_to_csv(summary);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            summary.cells.size() + 1);
}

// ---------------------------------------------------------------------------
// Exploring one app on one platform: the sweep over a one-app corpus and
// a one-point grid (the default PlatformGrid, A_FPGA 1500 x 2 CGCs).

std::vector<CorpusApp> ofdm_only() {
  const workloads::PaperApp ofdm = build_ofdm_model();
  return {{"ofdm", ofdm.cdfg, ofdm.profile}};
}

SweepSpec ofdm_point_spec() {
  SweepSpec spec;
  spec.constraints = {workloads::kOfdmTimingConstraint / 2,
                      workloads::kOfdmTimingConstraint,
                      2 * workloads::kOfdmTimingConstraint};
  spec.orderings = {KernelOrdering::kWeightDescending,
                    KernelOrdering::kBenefitDescending};
  spec.threads = 1;
  return spec;
}

TEST(ExplorerTest, GridOrderAndSize) {
  const SweepSpec spec = ofdm_point_spec();
  const auto summary = sweep_design_space(ofdm_only(), spec);
  ASSERT_EQ(summary.cells.size(), spec.constraints.size() *
                                      spec.strategies.size() *
                                      spec.orderings.size());
  const double cost =
      platform::platform_cost(platform::make_paper_platform(1500, 2));
  // Constraint-major, then strategy, then ordering, all on one platform.
  std::size_t index = 0;
  for (const std::int64_t constraint : spec.constraints) {
    for (const StrategyKind strategy : spec.strategies) {
      for (const KernelOrdering ordering : spec.orderings) {
        const SweepCell& cell = summary.cells[index++];
        EXPECT_EQ(cell.app, 0u);
        EXPECT_EQ(cell.a_fpga, 1500);
        EXPECT_EQ(cell.cgcs, 2);
        EXPECT_EQ(cell.platform_cost, cost);
        EXPECT_EQ(cell.constraint, constraint);
        EXPECT_EQ(cell.strategy, strategy);
        EXPECT_EQ(cell.ordering, ordering);
      }
    }
  }
}

TEST(ExplorerTest, PointsMatchDirectMethodologyRuns) {
  const auto corpus = ofdm_only();
  const auto p = platform::make_paper_platform(1500, 2);
  const auto summary = sweep_design_space(corpus, ofdm_point_spec());
  ASSERT_FALSE(summary.cells.empty());
  for (const SweepCell& cell : summary.cells) {
    MethodologyOptions options;
    options.strategy = cell.strategy;
    options.ordering = cell.ordering;
    const auto direct = run_methodology(corpus[0].cdfg, corpus[0].profile, p,
                                        cell.constraint, options);
    EXPECT_EQ(cell.report.moved, direct.moved);
    EXPECT_EQ(cell.report.final_cycles, direct.final_cycles);
    EXPECT_EQ(cell.report.met, direct.met);
  }
}

TEST(ExplorerTest, ParetoFrontInvariants) {
  // With one platform the cost axis is constant, so the app's front is
  // the exploration front over (final cycles, kernels moved, energy),
  // and with one app it is also the global front.
  const auto summary = sweep_design_space(ofdm_only(), ofdm_point_spec());
  ASSERT_EQ(summary.app_pareto.size(), 1u);
  const std::vector<std::size_t>& front = summary.app_pareto[0];
  ASSERT_FALSE(front.empty());
  EXPECT_EQ(front, summary.global_pareto);

  expect_oracle_fronts(summary);
  for (const std::size_t i : front) {
    ASSERT_LT(i, summary.cells.size());
    EXPECT_TRUE(summary.cells[i].on_app_pareto);
    for (const SweepCell& other : summary.cells) {
      EXPECT_FALSE(oracle_dominates(other, summary.cells[i]));
    }
  }
  // Every off-front cell is dominated by a front cell.
  for (const SweepCell& cell : summary.cells) {
    if (cell.on_app_pareto) continue;
    bool dominated = false;
    for (const std::size_t i : front) {
      dominated = dominated || oracle_dominates(summary.cells[i], cell);
    }
    EXPECT_TRUE(dominated);
  }
}

TEST(ExplorerTest, EmptyConstraintsSweepFractionsOfAllFine) {
  const auto corpus = ofdm_only();
  SweepSpec spec;  // no constraints: 1/4, 1/2, 3/4 of all-fine
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  const std::int64_t all_fine =
      HybridMapper(corpus[0].cdfg, platform::make_paper_platform(1500, 2))
          .all_fine_cycles(corpus[0].profile);
  ASSERT_EQ(summary.cells.size(),
            3 * spec.strategies.size() * spec.orderings.size());
  EXPECT_EQ(summary.cells.front().constraint, all_fine / 4);
  EXPECT_EQ(summary.cells.back().constraint, (3 * all_fine) / 4);
}

TEST(ExplorerTest, EnergyBudgetAxisExpandsGrid) {
  SweepSpec spec;
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.energy_budgets = {1.0e6, 7.0e5};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.base.cost.objective.kind = ObjectiveKind::kEnergy;
  spec.threads = 1;
  const auto summary = sweep_design_space(ofdm_only(), spec);
  ASSERT_EQ(summary.cells.size(), 2u);
  EXPECT_EQ(summary.cells[0].energy_budget_pj, 1.0e6);
  EXPECT_EQ(summary.cells[1].energy_budget_pj, 7.0e5);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.report.objective, ObjectiveKind::kEnergy);
    EXPECT_TRUE(cell.report.met);
    EXPECT_LE(cell.report.energy.total_pj(), cell.energy_budget_pj);
  }
  // The tighter budget needs strictly more kernels on the CGC.
  EXPECT_LT(summary.cells[0].report.moved.size(),
            summary.cells[1].report.moved.size());
}

TEST(ExplorerTest, EmptyStrategyGridRejected) {
  SweepSpec spec;
  spec.constraints = {1000};
  spec.strategies.clear();
  EXPECT_THROW(sweep_design_space(ofdm_only(), spec), Error);
}

TEST(ExplorerTest, TinyAppDefaultConstraintsClampAndDedupe) {
  // The tiny app's default fractions all round down to 0: each must be
  // clamped to at least one cycle and the duplicates dropped, instead of
  // sweeping three unmeetable "finish in no cycles" constraints.
  const std::vector<CorpusApp> corpus = {tiny_app()};
  ASSERT_EQ(HybridMapper(corpus[0].cdfg, platform::make_paper_platform(1500, 2))
                .all_fine_cycles(corpus[0].profile),
            0);
  SweepSpec spec;  // default constraints
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  // Capacity is three constraint slots; one is filled and the cell list
  // is compacted to it.
  const std::size_t walks = spec.strategies.size() * spec.orderings.size();
  ASSERT_EQ(sweep_cells_per_shard(spec), 3 * walks);
  ASSERT_EQ(summary.cells.size(), walks);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.constraint, 1);
    EXPECT_TRUE(cell.report.met);
  }
}

// ---- ParetoSkyline: finalize_sweep_summary's sort-filter skyline
// against the all-pairs oracle (pareto_oracle.h) on synthetic cells.

// A cost or energy key: mostly from a tiny range, so ties and equal
// keys are frequent; with `specials`, sometimes -0.0, +-inf or NaN (as a
// NaN literal or as inf + -inf from the key's two summands).
std::pair<double, double> synthetic_key(std::mt19937_64& rng, bool specials) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng() % (specials ? 9 : 4)) {
    case 0: return {-0.0, -0.0};
    case 1: return {0.0, 0.0};
    case 2: return {1.0, 0.0};
    case 3: return {1.0, 1.0};
    case 4: return {-0.0, 0.0};
    case 5: return {inf, 0.0};
    case 6: return {-inf, 0.0};
    case 7: return {std::numeric_limits<double>::quiet_NaN(), 0.0};
    default: return {inf, -inf};
  }
}

SweepCell synthetic_cell(std::mt19937_64& rng, std::size_t apps,
                         bool specials) {
  SweepCell cell;
  cell.app = rng() % apps;
  cell.report.final_cycles = static_cast<std::int64_t>(rng() % 4);
  cell.report.moved.resize(rng() % 3);
  const auto [platform, floorplan] = synthetic_key(rng, specials);
  cell.platform_cost = platform;
  cell.report.floorplan_cost = floorplan;
  const auto [fine, coarse] = synthetic_key(rng, specials);
  cell.report.energy.fine_pj = fine;
  cell.report.energy.coarse_pj = coarse;
  // total_pj() sums four terms; keep a -0.0 total -0.0.
  const double zero = std::signbit(fine) && fine == 0 ? -0.0 : 0.0;
  cell.report.energy.reconfig_pj = zero;
  cell.report.energy.comm_pj = zero;
  return cell;
}

// A summary of `shards` x `cells_per_shard` slots over `apps` apps, as a
// sweep hands it to finalize_sweep_summary. With `short_shards` some
// shards fill only a prefix of their slots. Each slot's constraint is
// its slot index, so the compaction can be checked; some cells copy an
// earlier cell's keys exactly.
struct SyntheticSweep {
  SweepSummary summary;
  std::vector<std::size_t> shard_used;
  std::vector<std::int64_t> kept_slots;  ///< slots that survive compaction
};

SyntheticSweep synthetic_sweep(std::mt19937_64& rng, std::size_t apps,
                               std::size_t shards,
                               std::size_t cells_per_shard, bool short_shards,
                               bool specials) {
  SyntheticSweep sweep;
  sweep.summary.apps.resize(apps);
  sweep.summary.cells.resize(shards * cells_per_shard);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t used = short_shards && rng() % 3 == 0
                                 ? rng() % (cells_per_shard + 1)
                                 : cells_per_shard;
    sweep.shard_used.push_back(used);
    for (std::size_t k = 0; k < cells_per_shard; ++k) {
      const std::size_t slot = shard * cells_per_shard + k;
      SweepCell& cell = sweep.summary.cells[slot];
      cell = slot > 0 && rng() % 8 == 0
                 ? sweep.summary.cells[rng() % slot]
                 : synthetic_cell(rng, apps, specials);
      cell.constraint = static_cast<std::int64_t>(slot);
      if (k < used) sweep.kept_slots.push_back(cell.constraint);
    }
  }
  return sweep;
}

void expect_skyline_matches_oracle(SyntheticSweep sweep,
                                   std::size_t cells_per_shard) {
  finalize_sweep_summary(sweep.summary, sweep.shard_used, cells_per_shard);
  std::vector<std::int64_t> slots;
  for (const SweepCell& cell : sweep.summary.cells) {
    slots.push_back(cell.constraint);
  }
  EXPECT_EQ(slots, sweep.kept_slots);
  expect_oracle_fronts(sweep.summary);
}

class ParetoSkylineOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoSkylineOracle, MatchesOracle) {
  std::mt19937_64 rng(GetParam());
  for (const std::size_t apps : {std::size_t{1}, std::size_t{7}}) {
    for (const bool specials : {false, true}) {
      SCOPED_TRACE(testing::Message() << "apps " << apps << " specials "
                                      << specials);
      const std::size_t cells_per_shard = 1 + rng() % 8;
      expect_skyline_matches_oracle(
          synthetic_sweep(rng, apps, rng() % 40, cells_per_shard,
                          /*short_shards=*/true, specials),
          cells_per_shard);
    }
  }
}

TEST_P(ParetoSkylineOracle, TwoThousandCellsMatchOracle) {
  std::mt19937_64 rng(GetParam());
  const std::size_t apps = GetParam() % 2 == 0 ? 1 : 7;
  expect_skyline_matches_oracle(
      synthetic_sweep(rng, apps, 250, 8, /*short_shards=*/false,
                      /*specials=*/GetParam() % 4 < 2),
      8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoSkylineOracle,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST(ParetoSkyline, ZeroAndOneCell) {
  std::mt19937_64 rng(1);
  expect_skyline_matches_oracle(synthetic_sweep(rng, 1, 0, 4, false, true),
                                4);
  expect_skyline_matches_oracle(synthetic_sweep(rng, 3, 1, 1, false, true),
                                1);
  // A lone shard that filled none of its slots.
  SyntheticSweep empty = synthetic_sweep(rng, 2, 1, 3, false, false);
  empty.shard_used = {0};
  empty.kept_slots.clear();
  expect_skyline_matches_oracle(std::move(empty), 3);
}

TEST(ParetoSkyline, NaNKeysStayOnBothFronts) {
  // Each cell is better than the next on every key except cell 1's NaN
  // energy: NaN cells are never dominated and dominate nothing.
  SweepSummary summary;
  summary.apps = {"a"};
  summary.cells.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    summary.cells[i].report.final_cycles = static_cast<std::int64_t>(i);
    summary.cells[i].report.energy.fine_pj = static_cast<double>(i);
  }
  summary.cells[1].report.energy.fine_pj =
      std::numeric_limits<double>::quiet_NaN();
  finalize_sweep_summary(summary, {3}, 3);
  EXPECT_EQ(summary.global_pareto, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(summary.app_pareto[0], (std::vector<std::size_t>{0, 1}));
  expect_oracle_fronts(summary);
}

TEST(ParetoSkyline, SignedZerosAndDuplicatesTie) {
  // -0.0 == +0.0, so neither zero-energy cell dominates the other, and
  // an exact duplicate of a front cell is on the front too.
  SweepSummary summary;
  summary.apps = {"a"};
  summary.cells.resize(3);
  summary.cells[0].report.energy = {-0.0, -0.0, -0.0, -0.0};
  summary.cells[1].report.energy = {0.0, 0.0, 0.0, 0.0};
  summary.cells[2] = summary.cells[0];
  finalize_sweep_summary(summary, {3}, 3);
  EXPECT_EQ(summary.global_pareto, (std::vector<std::size_t>{0, 1, 2}));
  expect_oracle_fronts(summary);
}

// A front certificate, O(|members| * |front|): no front cell is
// dominated by any member, and every member off the front is dominated
// by a front cell. `front` must list members in ascending order, and
// `flag` must be set on exactly the front's cells.
void expect_front_certificate(const std::vector<SweepCell>& cells,
                              const std::vector<std::size_t>& members,
                              const std::vector<std::size_t>& front,
                              bool SweepCell::*flag) {
  EXPECT_TRUE(std::is_sorted(front.begin(), front.end()));
  for (const std::size_t f : front) {
    ASSERT_LT(f, cells.size());
    for (const std::size_t m : members) {
      ASSERT_FALSE(oracle_dominates(cells[m], cells[f]))
          << "front cell " << f << " dominated by " << m;
    }
  }
  std::size_t flagged = 0;
  for (const std::size_t m : members) {
    if (cells[m].*flag) {
      ++flagged;
      continue;
    }
    const bool dominated =
        std::any_of(front.begin(), front.end(), [&](std::size_t f) {
          return oracle_dominates(cells[f], cells[m]);
        });
    ASSERT_TRUE(dominated) << "off-front cell " << m << " undominated";
  }
  EXPECT_EQ(flagged, front.size());
}

TEST(ParetoSkyline, ThousandAppCorpusCertificate) {
  // 1000 apps x 36 cells, the size of a 1000-app corpus sweep.
  constexpr std::size_t kApps = 1000;
  constexpr std::size_t kCellsPerApp = 36;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> energy(0.0, 1e6);
  SweepSummary summary;
  summary.apps.resize(kApps);
  summary.cells.resize(kApps * kCellsPerApp);
  std::vector<std::vector<std::size_t>> members(kApps);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    SweepCell& cell = summary.cells[i];
    cell.app = i / kCellsPerApp;
    cell.report.final_cycles = static_cast<std::int64_t>(rng() % 5000);
    cell.report.moved.resize(rng() % 6);
    cell.platform_cost = static_cast<double>(rng() % 16) * 100.0;
    cell.report.energy.fine_pj = energy(rng);
    members[cell.app].push_back(i);
    all.push_back(i);
  }
  finalize_sweep_summary(summary, std::vector<std::size_t>(kApps, kCellsPerApp),
                         kCellsPerApp);
  ASSERT_EQ(summary.app_pareto.size(), kApps);
  EXPECT_LT(summary.global_pareto.size(), all.size());
  expect_front_certificate(summary.cells, all, summary.global_pareto,
                           &SweepCell::on_global_pareto);
  for (std::size_t app = 0; app < kApps; ++app) {
    expect_front_certificate(summary.cells, members[app],
                             summary.app_pareto[app],
                             &SweepCell::on_app_pareto);
  }
}

}  // namespace
}  // namespace amdrel::core
