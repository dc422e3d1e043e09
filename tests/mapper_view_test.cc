// HybridMapper views over an AxisMemo's shared tables against the
// per-shard mapper, HybridMapper(cdfg, platform), as the oracle. Random
// grids over the built-in apps and fuzzed MiniC programs are visited in
// shuffled orders that interleave apps; every block's fine, coarse,
// communication and benefit prices must equal the oracle's, a fine
// mapping that throws must leave no table behind, and hand-built
// platforms that differ in any model field must not share tables.

#include "core/axis_memo.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "support/error.h"
#include "synth/minic_fuzzer.h"
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

// A fuzzed program in the shape of one perfbench corpus stratum
// (statements, loop nest, helper functions): seeds are drawn until one
// compiles and profiles within the budget, as `perf_trace gen` does.
CorpusApp fuzz_app(const std::string& name, int statements, int nest,
                   int functions, std::uint64_t seed) {
  synth::FuzzConfig config;
  config.statements = statements;
  config.max_loop_nest = nest;
  config.functions = functions;
  for (int attempt = 0; attempt < 100; ++attempt) {
    config.seed = seed + static_cast<std::uint64_t>(attempt);
    try {
      return compiled_app(name, synth::generate_minic_program(config));
    } catch (const Error&) {
    }
  }
  fail(cat("no fuzz program for ", name));
}

// The four built-in apps and three fuzzed programs of two strata.
const std::vector<CorpusApp>& view_corpus() {
  static const std::vector<CorpusApp> corpus = [] {
    std::vector<CorpusApp> apps = workloads::paper_corpus();
    apps.push_back(compiled_app("fir", workloads::fir_source()));
    apps.push_back(compiled_app("sobel", workloads::sobel_source()));
    apps.push_back(fuzz_app("fuzz_small_a", 6, 1, 1, 11));
    apps.push_back(fuzz_app("fuzz_small_b", 6, 1, 1, 29));
    apps.push_back(fuzz_app("fuzz_mid", 12, 2, 2, 47));
    return apps;
  }();
  return corpus;
}

// Holds one operation of every class but a division (area_div 120 >
// 100 >= area_mul 60): fine mapping throws for a block with a division.
constexpr double kNoDivisionArea = 100;

void expect_same_fine(const finegrain::FpgaBlockMapping& view,
                      const finegrain::FpgaBlockMapping& fresh,
                      const std::string& what) {
  EXPECT_EQ(view.partitioning.partition_of, fresh.partitioning.partition_of)
      << what;
  EXPECT_EQ(view.partitioning.num_partitions,
            fresh.partitioning.num_partitions)
      << what;
  EXPECT_EQ(view.partitioning.partition_area,
            fresh.partitioning.partition_area)
      << what;
  EXPECT_EQ(view.exec_cycles, fresh.exec_cycles) << what;
  EXPECT_EQ(view.boundary_words, fresh.boundary_words) << what;
  EXPECT_EQ(view.boundary_cycles, fresh.boundary_cycles) << what;
  EXPECT_EQ(view.reconfigs_per_invocation, fresh.reconfigs_per_invocation)
      << what;
  EXPECT_EQ(view.amortized_reconfigs, fresh.amortized_reconfigs) << what;
}

// Every price the engine reads, block by block. Pricing the coarse side
// schedules every eligible block, on the view's shared table too.
void expect_same_mapper(HybridMapper& view, HybridMapper& fresh,
                        const CorpusApp& app, const std::string& what) {
  ASSERT_EQ(&view.cdfg(), &app.cdfg) << what;
  EXPECT_EQ(view.all_fine_cycles(app.profile),
            fresh.all_fine_cycles(app.profile))
      << what;
  for (ir::BlockId b = 0; b < app.cdfg.size(); ++b) {
    const std::string block = what + " block " + std::to_string(b);
    expect_same_fine(view.fine(b), fresh.fine(b), block);
    EXPECT_EQ(view.fine_cycles_per_invocation(b),
              fresh.fine_cycles_per_invocation(b))
        << block;
    EXPECT_EQ(view.fine_contribution_cycles(b, app.profile),
              fresh.fine_contribution_cycles(b, app.profile))
        << block;
    EXPECT_EQ(view.op_mix(b).div, fresh.op_mix(b).div) << block;
    EXPECT_EQ(view.live_words(b), fresh.live_words(b)) << block;
    EXPECT_EQ(view.node_count(b), fresh.node_count(b)) << block;
    ASSERT_EQ(view.cgc_eligible(b), fresh.cgc_eligible(b)) << block;
    const std::uint64_t iterations = app.profile.count(b);
    EXPECT_EQ(view.move_benefit_cycles(b, iterations),
              fresh.move_benefit_cycles(b, iterations))
        << block;
    if (!view.cgc_eligible(b)) continue;
    EXPECT_EQ(view.comm_cycles_per_invocation(b),
              fresh.comm_cycles_per_invocation(b))
        << block;
    EXPECT_EQ(view.coarse_cycles_per_invocation(b),
              fresh.coarse_cycles_per_invocation(b))
        << block;
    EXPECT_EQ(view.coarse(b).schedule.total_cgc_cycles,
              fresh.coarse(b).schedule.total_cgc_cycles)
        << block;
  }
}

std::string error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

struct Visit {
  std::size_t app;
  double area;
  int cgcs;
};

// 1-5 areas, always including kNoDivisionArea, crossed with 1-4 CGC
// counts, for every corpus app, in one shuffled list.
std::vector<Visit> random_visits(std::mt19937_64& rng) {
  std::vector<double> pool = {450, 800, 1500, 2700, 5000, 9000};
  std::shuffle(pool.begin(), pool.end(), rng);
  const std::size_t area_count = 1 + rng() % 5;
  std::vector<double> areas = {kNoDivisionArea};
  for (std::size_t i = 0; i + 1 < area_count; ++i) {
    // Off-grid areas too, so a key can never be a rounded coordinate.
    areas.push_back(pool[i] + static_cast<double>(rng() % 3) * 0.25);
  }
  std::vector<int> cgcs = {1, 2, 3, 4, 5, 6, 7, 8};
  std::shuffle(cgcs.begin(), cgcs.end(), rng);
  cgcs.resize(1 + rng() % 4);
  std::vector<Visit> visits;
  for (std::size_t app = 0; app < view_corpus().size(); ++app) {
    for (const double area : areas) {
      for (const int count : cgcs) visits.push_back({app, area, count});
    }
  }
  std::shuffle(visits.begin(), visits.end(), rng);
  return visits;
}

class MapperViewProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperViewProperty, ViewsMatchPerShardMappersOnRandomGrids) {
  const std::vector<CorpusApp>& corpus = view_corpus();
  std::mt19937_64 rng(GetParam());
  const std::vector<Visit> visits = random_visits(rng);
  // One memo sees the visits interleaved, so it rebinds at every app
  // switch; one memo per app sees only its app's visits, out of grid
  // order, and shares the most.
  AxisMemo interleaved;
  std::map<std::size_t, AxisMemo> per_app;
  // Platforms outlive their views; every view is checked again at the
  // end, after its memo rebound to other apps.
  std::deque<platform::Platform> platforms;
  std::vector<std::pair<Visit, HybridMapper>> views;
  std::size_t throws = 0;
  for (const Visit& visit : visits) {
    const CorpusApp& app = corpus[visit.app];
    const std::string what = app.name + " " + std::to_string(visit.area) +
                             "x" + std::to_string(visit.cgcs);
    platforms.push_back(platform::make_paper_platform(visit.area, visit.cgcs));
    const platform::Platform& platform = platforms.back();
    const std::string fresh_error =
        error_of([&] { HybridMapper fresh(app.cdfg, platform); });
    for (AxisMemo* memo : {&interleaved, &per_app[visit.app]}) {
      memo->bind(app.cdfg, app.profile);
      if (!fresh_error.empty()) {
        // The failed build stores nothing: the same lookup fails the
        // same way again.
        EXPECT_EQ(error_of([&] { memo->mapper(platform); }), fresh_error)
            << what;
        EXPECT_EQ(error_of([&] { memo->mapper(platform); }), fresh_error)
            << what;
        continue;
      }
      HybridMapper view = memo->mapper(platform);
      HybridMapper fresh(app.cdfg, platform);
      expect_same_mapper(view, fresh, app, what);
      views.emplace_back(visit, std::move(view));
    }
    if (!fresh_error.empty()) {
      EXPECT_EQ(visit.area, kNoDivisionArea) << what << ": " << fresh_error;
      ++throws;
    }
  }
  // Some app holds a division, so the small area threw at least once.
  EXPECT_GT(throws, 0u);
  for (auto& [visit, view] : views) {
    const CorpusApp& app = corpus[visit.app];
    HybridMapper fresh(app.cdfg, view.platform());
    expect_same_mapper(view, fresh, app,
                       app.name + " again " + std::to_string(visit.area) +
                           "x" + std::to_string(visit.cgcs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperViewProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// A failed fine mapping leaves the other areas of the app alone: views
// built before and after it still price like the oracle.
TEST(MapperViewTest, FailedAreaLeavesOtherAreasUnaffected) {
  const CorpusApp* app = nullptr;
  for (const CorpusApp& candidate : view_corpus()) {
    const platform::Platform small =
        platform::make_paper_platform(kNoDivisionArea, 2);
    if (!error_of([&] { HybridMapper m(candidate.cdfg, small); }).empty()) {
      app = &candidate;
      break;
    }
  }
  ASSERT_NE(app, nullptr) << "no corpus app holds a division";
  const platform::Platform before = platform::make_paper_platform(1500, 2);
  const platform::Platform small =
      platform::make_paper_platform(kNoDivisionArea, 2);
  const platform::Platform after = platform::make_paper_platform(5000, 2);
  AxisMemo memo;
  memo.bind(app->cdfg, app->profile);
  HybridMapper first = memo.mapper(before);
  const std::string error = error_of([&] { memo.mapper(small); });
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  HybridMapper second = memo.mapper(after);
  HybridMapper again = memo.mapper(before);
  HybridMapper fresh_before(app->cdfg, before);
  HybridMapper fresh_after(app->cdfg, after);
  expect_same_mapper(first, fresh_before, *app, "before");
  expect_same_mapper(second, fresh_after, *app, "after");
  expect_same_mapper(again, fresh_before, *app, "before again");
  EXPECT_EQ(error_of([&] { memo.mapper(small); }), error);
}

// Tables are keyed by every model field, doubles by their bits: a
// hand-built platform that differs from another in one field, however
// little, gets its own tables and prices like its own oracle.
TEST(MapperViewTest, HandBuiltPlatformsDoNotAlias) {
  const CorpusApp& app = view_corpus()[0];
  std::deque<platform::Platform> platforms;
  const platform::Platform base = platform::make_paper_platform(1500, 2);
  auto variant = [&](auto&& edit) -> const platform::Platform& {
    platforms.push_back(base);
    edit(platforms.back());
    return platforms.back();
  };
  const std::vector<const platform::Platform*> all = {
      &variant([](platform::Platform&) {}),
      &variant([](platform::Platform& p) {
        p.fpga.usable_area = std::nextafter(1500.0, 0.0);
      }),
      &variant([](platform::Platform& p) { p.fpga.usable_area = 700; }),
      &variant([](platform::Platform& p) { p.fpga.area_mul = 61; }),
      &variant([](platform::Platform& p) { p.fpga.parallel_lanes = 2; }),
      &variant([](platform::Platform& p) {
        p.fpga.invocation_overhead_cycles = 3;
      }),
      &variant([](platform::Platform& p) { p.fpga.delay_alu = 2; }),
      &variant([](platform::Platform& p) { p.fpga.reconfig_cycles = 9; }),
      &variant([](platform::Platform& p) {
        p.fpga.reconfig_policy = platform::ReconfigPolicy::kPerPartition;
      }),
      &variant([](platform::Platform& p) {
        p.fpga.mapper = platform::FineMapper::kListPacking;
      }),
      &variant([](platform::Platform& p) {
        p.memory.partition_boundary_cycles_per_word = 7;
      }),
      &variant([](platform::Platform& p) {
        p.memory.transfer_cycles_per_word = 5;
      }),
      &variant([](platform::Platform& p) { p.cgc.count = 3; }),
      &variant([](platform::Platform& p) { p.cgc.rows = 3; }),
      &variant([](platform::Platform& p) { p.cgc.cols = 3; }),
      &variant([](platform::Platform& p) { p.cgc.mem_ports = 1; }),
      &variant([](platform::Platform& p) { p.cgc.mem_access_cgc_cycles = 9; }),
      &variant([](platform::Platform& p) { p.cgc.fpga_clock_ratio = 2; }),
      &variant([](platform::Platform& p) { p.cgc.enable_chaining = false; }),
      &variant([](platform::Platform& p) { p.cgc.dma_memory = false; }),
  };
  AxisMemo memo;
  memo.bind(app.cdfg, app.profile);
  // Twice over, so the second round reads only tables the first built.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      HybridMapper view = memo.mapper(*all[i]);
      HybridMapper fresh(app.cdfg, *all[i]);
      expect_same_mapper(view, fresh, app,
                         "variant " + std::to_string(i) + " round " +
                             std::to_string(round));
    }
  }
}

// Out-of-range block ids are a loud Error on every checked accessor,
// for the per-shard mapper and for a view alike.
TEST(MapperViewTest, BadBlockIdsThrow) {
  const CorpusApp& app = view_corpus()[0];
  const platform::Platform platform = platform::make_paper_platform(1500, 2);
  AxisMemo memo;
  memo.bind(app.cdfg, app.profile);
  HybridMapper view = memo.mapper(platform);
  HybridMapper fresh(app.cdfg, platform);
  for (HybridMapper* mapper : {&view, &fresh}) {
    for (const ir::BlockId bad : {ir::BlockId{-1}, app.cdfg.size()}) {
      EXPECT_THROW(mapper->coarse(bad), Error) << bad;
      EXPECT_THROW(mapper->coarse_cycles_per_invocation(bad), Error) << bad;
      EXPECT_THROW(mapper->move_benefit_cycles(bad, 1), Error) << bad;
      EXPECT_THROW(mapper->fine(bad), Error) << bad;
      EXPECT_THROW(mapper->fine_cycles_per_invocation(bad), Error) << bad;
      EXPECT_THROW(mapper->fine_contribution_cycles(bad, app.profile), Error)
          << bad;
      EXPECT_NE(error_of([&] { mapper->coarse(bad); }).find("bad block"),
                std::string::npos);
      EXPECT_NE(error_of([&] { mapper->move_benefit_cycles(bad, 1); })
                    .find("bad block"),
                std::string::npos);
    }
  }
  EXPECT_THROW(AxisMemo().mapper(platform), Error);
}

// The sweep through per-thread memos equals a sweep that computes every
// shard with a fresh memo of its own, so no tables are shared across
// shards, and still counts one mapper build per shard, at one thread
// and at four.
TEST(MapperViewTest, SweepMatchesMemoFreeShardsAndCountsOneBuildPerShard) {
  const std::vector<CorpusApp>& corpus = view_corpus();
  SweepSpec spec;
  spec.grid.areas = {800, 1500.25, 5000};
  spec.grid.cgc_counts = {1, 2, 3};
  spec.strategies = all_strategies();
  spec.orderings = {KernelOrdering::kWeightDescending,
                    KernelOrdering::kBenefitDescending};
  spec.base.exhaustive_max_kernels = 8;
  spec.base.anneal_iterations = 300;

  // The oracle: every shard computed alone with a per-shard memo.
  const std::size_t per_shard = sweep_cells_per_shard(spec);
  const std::size_t shards = sweep_shard_count(corpus, spec);
  SweepSummary oracle;
  for (const CorpusApp& app : corpus) oracle.apps.push_back(app.name);
  oracle.cells.resize(shards * per_shard);
  std::vector<std::size_t> used(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    AxisMemo memo;
    used[shard] = compute_sweep_shard(
        corpus, spec, shard, oracle.cells.data() + shard * per_shard, memo);
  }
  finalize_sweep_summary(oracle, used, per_shard);
  const std::string expected = sweep_to_json(oracle);

  for (const int threads : {1, 4}) {
    SweepCache cache;
    SweepSpec cached = spec;
    cached.threads = threads;
    cached.cache = &cache;
    EXPECT_EQ(sweep_to_json(sweep_design_space(corpus, cached)), expected)
        << threads << " threads";
    EXPECT_EQ(cache.stats().mapper_builds, shards) << threads << " threads";
    EXPECT_EQ(cache.stats().mapper_restores, 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace amdrel::core
