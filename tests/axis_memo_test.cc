// AxisMemo against fresh runs: on a grid that saturates (areas 600-9000
// x 1-8 CGCs), every memoized run_methodology_axis must give the report
// a memo-free run gives, field for field, and leave scheduled on its
// mapper the fresh run's CGC blocks plus the movable kernels of every
// axis the memo keyed — for every strategy, ordering and objective,
// with and without reconfiguration pricing. Saturated platforms must
// share walks, and binding another app must empty the memo.

#include "core/axis_memo.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/energy.h"
#include "core/explorer.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "synth/minic_fuzzer.h"
#include "test_helpers.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

CorpusApp compiled_app(const std::string& name, const std::string& source) {
  CorpusApp app;
  app.name = name;
  ir::TacProgram tac = minic::compile(source, name);
  interp::Interpreter interp(tac);
  app.profile = interp.run(/*max_instructions=*/20'000'000).profile;
  app.cdfg = ir::build_cdfg(tac);
  return app;
}

// The four built-in apps and three fuzzed MiniC programs.
const std::vector<CorpusApp>& memo_corpus() {
  static const std::vector<CorpusApp> corpus = [] {
    std::vector<CorpusApp> apps = workloads::paper_corpus();
    apps.push_back(compiled_app("fir", workloads::fir_source()));
    apps.push_back(compiled_app("sobel", workloads::sobel_source()));
    for (const std::uint64_t seed : {3, 5, 8}) {
      synth::FuzzConfig config;
      config.statements = 10;
      config.seed = seed;
      apps.push_back(compiled_app("fuzz" + std::to_string(seed),
                                  synth::generate_minic_program(config)));
    }
    return apps;
  }();
  return corpus;
}

const double kAreas[] = {600, 1500, 5000, 9000};
const int kCgcs[] = {1, 2, 4, 8};

void expect_same_report(const PartitionReport& memo,
                        const PartitionReport& fresh,
                        const std::string& what) {
  EXPECT_EQ(memo.app, fresh.app) << what;
  EXPECT_EQ(memo.timing_constraint, fresh.timing_constraint) << what;
  EXPECT_EQ(memo.objective, fresh.objective) << what;
  EXPECT_EQ(memo.energy_budget_pj, fresh.energy_budget_pj) << what;
  EXPECT_EQ(memo.initial_cycles, fresh.initial_cycles) << what;
  EXPECT_EQ(memo.initial_energy_pj, fresh.initial_energy_pj) << what;
  EXPECT_EQ(memo.initial_meets, fresh.initial_meets) << what;
  EXPECT_EQ(memo.kernels_found, fresh.kernels_found) << what;
  EXPECT_EQ(memo.moved, fresh.moved) << what;
  EXPECT_EQ(memo.cost.t_fpga, fresh.cost.t_fpga) << what;
  EXPECT_EQ(memo.cost.t_coarse, fresh.cost.t_coarse) << what;
  EXPECT_EQ(memo.cost.t_comm, fresh.cost.t_comm) << what;
  EXPECT_EQ(memo.cost.t_reconfig, fresh.cost.t_reconfig) << what;
  EXPECT_EQ(memo.final_cycles, fresh.final_cycles) << what;
  EXPECT_EQ(memo.cycles_in_cgc, fresh.cycles_in_cgc) << what;
  EXPECT_EQ(memo.energy.fine_pj, fresh.energy.fine_pj) << what;
  EXPECT_EQ(memo.energy.coarse_pj, fresh.energy.coarse_pj) << what;
  EXPECT_EQ(memo.energy.reconfig_pj, fresh.energy.reconfig_pj) << what;
  EXPECT_EQ(memo.energy.comm_pj, fresh.energy.comm_pj) << what;
  EXPECT_EQ(memo.floorplan_cost, fresh.floorplan_cost) << what;
  EXPECT_EQ(memo.met, fresh.met) << what;
  EXPECT_EQ(memo.engine_iterations, fresh.engine_iterations) << what;
}

// Fixed cells for the whole grid, as a sweep with explicit constraints
// and budgets has: fractions of the all-fine cycles and energy on the
// largest platform, so no platform meets them all without moving
// kernels, and the loosest lets walks stop early.
std::vector<AxisCell> grid_cells(const CorpusApp& app) {
  const auto largest = platform::make_paper_platform(9000, 8);
  const HybridMapper probe(app.cdfg, largest);
  const std::int64_t cycles = probe.all_fine_cycles(app.profile);
  const double pj = estimate_energy(probe, app.profile, {}).total_pj();
  std::vector<AxisCell> cells;
  for (const std::int64_t constraint :
       {cycles / 4, cycles / 2, (9 * cycles) / 10}) {
    for (const double budget : {0.5 * pj, 0.9 * pj}) {
      cells.push_back({constraint, budget});
    }
  }
  return cells;
}

MethodologyOptions grid_options(StrategyKind strategy, KernelOrdering ordering,
                                ObjectiveKind objective, bool reconfig) {
  MethodologyOptions options;
  options.strategy = strategy;
  options.ordering = ordering;
  options.cost.objective.kind = objective;
  options.exhaustive_max_kernels = 10;
  options.anneal_iterations = 1000;
  if (reconfig) {
    options.cost.reconfig.bitstream_cycles_per_unit = 2;
    options.cost.reconfig.prefetch_overlap = 0.25;
    options.cost.reconfig.floorplan_cost_per_unit = 0.5;
  }
  return options;
}

// The kernel list run_methodology_axis hands the strategy: the app's
// extract_kernels list in options.ordering.
std::vector<analysis::KernelInfo> ordered_kernels(
    const CorpusApp& app, HybridMapper& mapper,
    const MethodologyOptions& options) {
  std::vector<analysis::KernelInfo> kernels =
      analysis::extract_kernels(app.cdfg, app.profile, options.analysis);
  switch (options.ordering) {
    case KernelOrdering::kWeightDescending:
      break;
    case KernelOrdering::kCodeOrder:
      std::sort(kernels.begin(), kernels.end(),
                [](const auto& a, const auto& b) { return a.block < b.block; });
      break;
    case KernelOrdering::kRandom: {
      std::mt19937_64 rng(options.random_seed);
      std::shuffle(kernels.begin(), kernels.end(), rng);
      break;
    }
    case KernelOrdering::kBenefitDescending: {
      std::vector<std::pair<std::int64_t, std::size_t>> benefit;
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        benefit.emplace_back(
            -mapper.move_benefit_cycles(kernels[i].block,
                                        kernels[i].exec_freq),
            i);
      }
      std::sort(benefit.begin(), benefit.end());
      std::vector<analysis::KernelInfo> ordered;
      for (const auto& entry : benefit) {
        ordered.push_back(kernels[entry.second]);
      }
      kernels = std::move(ordered);
      break;
    }
  }
  return kernels;
}

// Marks on `keyed` the kernels an axis's strategy may move
// (movable_kernels); the memo mapper schedules them all to build the
// axis's key.
void add_movable_kernels(const CorpusApp& app, HybridMapper& mapper,
                         const std::vector<AxisCell>& cells,
                         const MethodologyOptions& options,
                         std::vector<bool>& keyed) {
  const std::vector<analysis::KernelInfo> kernels =
      ordered_kernels(app, mapper, options);
  const AxisContext ctx{mapper, app.profile, options, kernels, cells};
  for (const ir::BlockId block : movable_kernels(options.strategy, ctx)) {
    keyed[static_cast<std::size_t>(block)] = true;
  }
}

// The fresh mapper's scheduled set plus the recorded movable kernels.
std::vector<bool> fresh_plus_keyed(const HybridMapper& fresh,
                                   const std::vector<bool>& keyed) {
  std::vector<bool> expected = test::scheduled_blocks(fresh);
  for (std::size_t b = 0; b < expected.size(); ++b) {
    expected[b] = expected[b] || keyed[b];
  }
  return expected;
}

class AxisMemoProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AxisMemoProperty, MemoizedAxesMatchFreshRunsAcrossASaturatingGrid) {
  const CorpusApp& app = memo_corpus()[GetParam()];
  const std::vector<AxisCell> cells = grid_cells(app);
  AxisMemo memo;
  std::size_t runs = 0;
  for (const double area : kAreas) {
    for (const int cgcs : kCgcs) {
      const auto platform = platform::make_paper_platform(area, cgcs);
      for (const StrategyKind strategy : all_strategies()) {
        for (const KernelOrdering ordering : all_kernel_orderings()) {
          // A fresh mapper pair per (platform, strategy, ordering), so the
          // first walks on it schedule CGC blocks lazily and a lookup
          // that scheduled a block outside the movable kernels shows.
          HybridMapper memo_mapper(app.cdfg, platform);
          HybridMapper fresh_mapper(app.cdfg, platform);
          std::vector<bool> keyed(static_cast<std::size_t>(app.cdfg.size()));
          for (const ObjectiveKind objective : all_objectives()) {
            for (const bool reconfig : {false, true}) {
              const MethodologyOptions options =
                  grid_options(strategy, ordering, objective, reconfig);
              const std::string what =
                  app.name + " " + std::to_string(area) + "x" +
                  std::to_string(cgcs) + " " + strategy_name(strategy) + " " +
                  kernel_ordering_name(ordering) + " " +
                  objective_name(objective) +
                  (reconfig ? " reconfig" : "");
              const std::size_t lookups = memo.hits() + memo.walks();
              const std::vector<PartitionReport> memoized =
                  run_methodology_axis(memo_mapper, app.profile, cells,
                                       options, &memo);
              const std::vector<PartitionReport> fresh =
                  run_methodology_axis(fresh_mapper, app.profile, cells,
                                       options);
              ASSERT_EQ(memoized.size(), fresh.size()) << what;
              for (std::size_t c = 0; c < fresh.size(); ++c) {
                expect_same_report(memoized[c], fresh[c],
                                   what + " cell " + std::to_string(c));
              }
              // The memo keys an axis only when some cell is open.
              if (memo.hits() + memo.walks() != lookups) {
                add_movable_kernels(app, memo_mapper, cells, options, keyed);
              }
              ASSERT_EQ(test::scheduled_blocks(memo_mapper),
                        fresh_plus_keyed(fresh_mapper, keyed))
                  << what;
              ++runs;
            }
          }
        }
      }
    }
  }
  // Past the saturation points platforms share walks: the memo stores
  // fewer walks than the grid ran, and the rest were hits.
  EXPECT_GT(memo.hits(), 0u) << app.name;
  EXPECT_LT(memo.walks(), runs) << app.name;
}

std::string app_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return memo_corpus()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(Apps, AxisMemoProperty,
                         ::testing::Range<std::size_t>(0, 7), app_name);

// Past the paper models' saturation points platforms price every walk
// alike: eight CGCs schedule no block faster than four, and A_FPGA 9000
// maps no block better than 5000. Each of those platforms must hit a
// walk stored for a smaller one, for every strategy, and the others
// must miss.
TEST(AxisMemoTest, SaturatedPlatformsHit) {
  for (std::size_t a = 0; a < 2; ++a) {
    const CorpusApp& app = memo_corpus()[a];
    const std::vector<AxisCell> cells = grid_cells(app);
    for (const StrategyKind strategy : all_strategies()) {
      const MethodologyOptions options =
          grid_options(strategy, KernelOrdering::kWeightDescending,
                       ObjectiveKind::kTiming, false);
      AxisMemo memo;
      for (const double area : kAreas) {
        for (const int cgcs : kCgcs) {
          const std::string what = app.name + " " + strategy_name(strategy) +
                                   " " + std::to_string(area) + "x" +
                                   std::to_string(cgcs);
          const auto platform = platform::make_paper_platform(area, cgcs);
          HybridMapper memo_mapper(app.cdfg, platform);
          HybridMapper fresh_mapper(app.cdfg, platform);
          const std::size_t hits = memo.hits();
          const std::size_t lookups = memo.hits() + memo.walks();
          const std::vector<PartitionReport> memoized = run_methodology_axis(
              memo_mapper, app.profile, cells, options, &memo);
          const bool saturated = cgcs == 8 || area == 9000;
          EXPECT_EQ(memo.hits(), hits + (saturated ? 1 : 0)) << what;
          const std::vector<PartitionReport> fresh =
              run_methodology_axis(fresh_mapper, app.profile, cells, options);
          for (std::size_t c = 0; c < fresh.size(); ++c) {
            expect_same_report(memoized[c], fresh[c], what);
          }
          std::vector<bool> keyed(static_cast<std::size_t>(app.cdfg.size()));
          if (memo.hits() + memo.walks() != lookups) {
            add_movable_kernels(app, memo_mapper, cells, options, keyed);
          }
          EXPECT_EQ(test::scheduled_blocks(memo_mapper),
                    fresh_plus_keyed(fresh_mapper, keyed))
              << what;
        }
      }
      EXPECT_EQ(memo.walks(), 9u) << app.name << " " << strategy_name(strategy);
    }
  }
}

TEST(AxisMemoTest, BindingAnotherAppEmptiesTheMemo) {
  const std::vector<CorpusApp>& corpus = memo_corpus();
  const CorpusApp& ofdm = corpus[0];
  const CorpusApp& jpeg = corpus[1];
  const auto platform = platform::make_paper_platform(5000, 4);
  const MethodologyOptions options =
      grid_options(StrategyKind::kGreedyPaper,
                   KernelOrdering::kWeightDescending, ObjectiveKind::kTiming,
                   false);
  AxisMemo memo;
  HybridMapper ofdm_mapper(ofdm.cdfg, platform);
  run_methodology_axis(ofdm_mapper, ofdm.profile, grid_cells(ofdm), options,
                       &memo);
  EXPECT_EQ(memo.walks(), 1u);
  EXPECT_EQ(memo.kernels({}).size(),
            analysis::extract_kernels(ofdm.cdfg, ofdm.profile).size());

  // Rebinding the same app keeps what the memo holds.
  memo.bind(ofdm.cdfg, ofdm.profile);
  EXPECT_EQ(memo.walks(), 1u);

  HybridMapper jpeg_mapper(jpeg.cdfg, platform);
  run_methodology_axis(jpeg_mapper, jpeg.profile, grid_cells(jpeg), options,
                       &memo);
  EXPECT_EQ(memo.walks(), 1u);
  const auto jpeg_kernels = analysis::extract_kernels(jpeg.cdfg, jpeg.profile);
  ASSERT_EQ(memo.kernels({}).size(), jpeg_kernels.size());
  for (std::size_t k = 0; k < jpeg_kernels.size(); ++k) {
    EXPECT_EQ(memo.kernels({})[k].block, jpeg_kernels[k].block);
  }

  // Back on OFDM nothing is left to hit: the walk runs again.
  HybridMapper again(ofdm.cdfg, platform);
  run_methodology_axis(again, ofdm.profile, grid_cells(ofdm), options,
                       &memo);
  EXPECT_EQ(memo.walks(), 1u);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(AxisMemoTest, KernelListFollowsTheAnalysisOptions) {
  const CorpusApp& app = memo_corpus()[0];
  AxisMemo memo;
  memo.bind(app.cdfg, app.profile);
  analysis::AnalysisOptions all_blocks;
  all_blocks.loops_only = false;
  EXPECT_EQ(memo.kernels({}).size(),
            analysis::extract_kernels(app.cdfg, app.profile).size());
  EXPECT_EQ(memo.kernels(all_blocks).size(),
            analysis::extract_kernels(app.cdfg, app.profile, all_blocks)
                .size());
}

}  // namespace
}  // namespace amdrel::core
