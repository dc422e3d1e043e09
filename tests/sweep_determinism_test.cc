// Golden-file and determinism tests for the machine-readable sweep
// output (core/sweep_io.h) and the sweep cache file (core/sweep_cache.h).
//
// A fixed platform grid x {OFDM, JPEG} corpus sweep is rendered to JSON
// and CSV and pinned byte-for-byte against tests/golden/sweep.json.golden
// and tests/golden/sweep.csv.golden. The same sweep must also be
// byte-identical across thread counts (1, 2, hardware_concurrency) and
// across repeated runs — the determinism contract every later scaling PR
// (process sharding, caching) builds on. The JSON carries a
// schema_version field, so any intentional format change is an explicit,
// reviewed event. tests/golden/sweep_cache.jsonl.golden pins the bytes
// SweepCache::save writes, generation stamps included. The same sweep
// also pins the other three writers: a worker's wire stream
// (sweep_worker.wire.golden), the --stream-partial NDJSON
// (sweep_partial.ndjson.golden) and the stdout table
// (sweep_table.txt.golden). Regenerate all six with:
//   ./build/tests/sweep_determinism_test --regen
// then review the diff of tests/golden/.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/sweep_service.h"
#include "workloads/paper_models.h"

#ifndef AMDREL_GOLDEN_DIR
#error "AMDREL_GOLDEN_DIR must be defined by the build"
#endif

namespace amdrel {
namespace {

// The pinned sweep: the paper's Table-2/3 platform grid, default
// constraints (1/4, 1/2, 3/4 of each cell's all-fine cycles, so the same
// spec fits both apps' scales), all three strategies with a bounded
// branch-and-bound, the paper's kernel ordering.
core::SweepSpec golden_spec(int threads) {
  core::SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {core::StrategyKind::kGreedyPaper,
                     core::StrategyKind::kExhaustive,
                     core::StrategyKind::kAnnealing};
  spec.orderings = {core::KernelOrdering::kWeightDescending};
  spec.base.exhaustive_max_kernels = 12;
  spec.threads = threads;
  return spec;
}

core::SweepSummary run_sweep(int threads) {
  return core::sweep_design_space(workloads::paper_corpus(),
                                  golden_spec(threads));
}

std::string golden_path(const char* name) {
  return std::string(AMDREL_GOLDEN_DIR) + "/" + name;
}

void expect_matches_golden(const std::string& rendered, const char* name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path(name)
                         << " (run with --regen to create it)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), rendered)
      << "sweep output drifted from " << golden_path(name)
      << "; if intentional, bump kSweepSchemaVersion when the schema "
         "changed, regenerate with --regen and review the diff";
}

// A worker's one-shot wire stream over every shard of the golden sweep,
// in shard order.
std::string worker_stream_bytes() {
  const auto corpus = workloads::paper_corpus();
  const core::SweepSpec spec = golden_spec(2);
  std::vector<std::size_t> all(core::sweep_shard_count(corpus, spec));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::ostringstream os;
  core::run_sweep_worker(corpus, spec, all, os);
  return os.str();
}

// The --stream-partial NDJSON of the golden sweep, shards in index order
// (serve writes them in completion order; the line bytes are the same).
std::string partial_stream_bytes() {
  const auto corpus = workloads::paper_corpus();
  const core::SweepSpec spec = golden_spec(2);
  std::vector<std::string> apps;
  for (const core::CorpusApp& app : corpus) apps.push_back(app.name);
  std::vector<std::size_t> all(core::sweep_shard_count(corpus, spec));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::ostringstream os;
  core::write_partial_stream_header(os, all.size());
  core::compute_sweep_shards(
      corpus, spec, all,
      [&](std::size_t shard, std::vector<core::SweepCell>& cells,
          std::size_t used) {
        core::write_partial_stream_shard(os, apps, shard, cells.data(), used);
      });
  return os.str();
}

TEST(SweepDeterminismTest, JsonMatchesCommittedGolden) {
  expect_matches_golden(core::sweep_to_json(run_sweep(2)),
                        "sweep.json.golden");
}

TEST(SweepDeterminismTest, CsvMatchesCommittedGolden) {
  expect_matches_golden(core::sweep_to_csv(run_sweep(2)), "sweep.csv.golden");
}

TEST(SweepDeterminismTest, WorkerStreamMatchesCommittedGolden) {
  expect_matches_golden(worker_stream_bytes(), "sweep_worker.wire.golden");
}

TEST(SweepDeterminismTest, PartialStreamMatchesCommittedGolden) {
  expect_matches_golden(partial_stream_bytes(), "sweep_partial.ndjson.golden");
}

TEST(SweepDeterminismTest, TableMatchesCommittedGolden) {
  expect_matches_golden(core::describe(run_sweep(2)), "sweep_table.txt.golden");
}

TEST(SweepDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  const std::string serial = core::sweep_to_json(run_sweep(1));
  EXPECT_EQ(serial, core::sweep_to_json(run_sweep(2)));
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(serial, core::sweep_to_json(run_sweep(hw)));
}

TEST(SweepDeterminismTest, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(core::sweep_to_json(run_sweep(2)),
            core::sweep_to_json(run_sweep(2)));
  EXPECT_EQ(core::sweep_to_csv(run_sweep(2)),
            core::sweep_to_csv(run_sweep(2)));
}

TEST(SweepDeterminismTest, TableRenderingIsDeterministicToo) {
  EXPECT_EQ(core::describe(run_sweep(1)), core::describe(run_sweep(4)));
}

// The caching acceptance property: a warm-cache rerun of the golden
// sweep is byte-identical to the uncached emission at every thread
// count AND constructs zero new mappers — repeated (app, platform) cell
// groups are served entirely from the memo.
TEST(SweepDeterminismTest, WarmCacheRerunIsByteIdenticalAndMapperFree) {
  const std::string uncached_json = core::sweep_to_json(run_sweep(2));
  const std::string uncached_csv = core::sweep_to_csv(run_sweep(2));

  core::SweepCache cache;
  auto run_cached = [&](int threads) {
    core::SweepSpec spec = golden_spec(threads);
    spec.cache = &cache;
    return core::sweep_design_space(workloads::paper_corpus(), spec);
  };

  // Cold fill: already byte-identical to the uncached sweep.
  const auto cold = run_cached(2);
  EXPECT_EQ(core::sweep_to_json(cold), uncached_json);
  EXPECT_EQ(core::sweep_to_csv(cold), uncached_csv);

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    const core::SweepCacheStats before = cache.stats();
    const auto warm = run_cached(threads);
    EXPECT_EQ(core::sweep_to_json(warm), uncached_json)
        << threads << " threads";
    EXPECT_EQ(core::sweep_to_csv(warm), uncached_csv)
        << threads << " threads";
    const core::SweepCacheStats stats = cache.stats();
    EXPECT_EQ(stats.cell_misses, before.cell_misses) << threads << " threads";
    EXPECT_EQ(stats.mapper_builds, before.mapper_builds)
        << threads << " threads";
    EXPECT_EQ(stats.mapper_restores, before.mapper_restores)
        << threads << " threads";
  }
}

// Same property across processes: a cache persisted to disk and loaded
// into a fresh store serves the golden sweep without recomputing.
TEST(SweepDeterminismTest, PersistedCacheServesGoldenSweep) {
  const std::string uncached_json = core::sweep_to_json(run_sweep(2));
  const std::string path = testing::TempDir() + "golden_sweep_cache.jsonl";
  {
    core::SweepCache cache;
    core::SweepSpec spec = golden_spec(2);
    spec.cache = &cache;
    core::sweep_design_space(workloads::paper_corpus(), spec);
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  core::SweepCache fresh;
  std::string error;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  core::SweepSpec spec = golden_spec(2);
  spec.cache = &fresh;
  const auto warm =
      core::sweep_design_space(workloads::paper_corpus(), spec);
  EXPECT_EQ(core::sweep_to_json(warm), uncached_json);
  EXPECT_EQ(fresh.stats().cell_misses, 0u);
  EXPECT_EQ(fresh.stats().mapper_builds, 0u);
  std::remove(path.c_str());
}

// The pinned cache file: OFDM on one 1500x2 platform, greedy and
// annealing. A cold run is saved, loaded into a fresh cache and rerun
// under explicit constraints, then saved again: the file holds the
// first run's all-fine entry and cells and the second run's cells, each
// kind in key order. Mapper snapshots stay in memory and never reach it.
std::string cache_file_bytes() {
  std::vector<core::CorpusApp> corpus;
  for (core::CorpusApp& app : workloads::paper_corpus()) {
    if (app.name == "ofdm") corpus.push_back(std::move(app));
  }
  core::SweepSpec spec;
  spec.grid.areas = {1500};
  spec.grid.cgc_counts = {2};
  spec.strategies = {core::StrategyKind::kGreedyPaper,
                     core::StrategyKind::kAnnealing};
  spec.orderings = {core::KernelOrdering::kWeightDescending};
  spec.threads = 1;

  const std::string path = testing::TempDir() + "golden_cache_bytes.jsonl";
  std::remove(path.c_str());
  std::string error;
  {
    core::SweepCache cold;
    spec.cache = &cold;
    core::sweep_design_space(corpus, spec);
    if (!cold.save(path, &error)) return "save failed: " + error;
  }
  core::SweepCache warm;
  if (!warm.load(path, &error)) return "load failed: " + error;
  spec.cache = &warm;
  spec.constraints = {60000, 100000};
  core::sweep_design_space(corpus, spec);
  if (!warm.save(path, &error)) return "save failed: " + error;

  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(SweepDeterminismTest, CacheFileMatchesCommittedGolden) {
  expect_matches_golden(cache_file_bytes(), "sweep_cache.jsonl.golden");
}

}  // namespace
}  // namespace amdrel

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      const auto summary = amdrel::run_sweep(2);
      std::ofstream json(amdrel::golden_path("sweep.json.golden"),
                         std::ios::binary);
      json << amdrel::core::sweep_to_json(summary);
      std::ofstream csv(amdrel::golden_path("sweep.csv.golden"),
                        std::ios::binary);
      csv << amdrel::core::sweep_to_csv(summary);
      std::ofstream cache(amdrel::golden_path("sweep_cache.jsonl.golden"),
                          std::ios::binary);
      cache << amdrel::cache_file_bytes();
      std::ofstream wire(amdrel::golden_path("sweep_worker.wire.golden"),
                         std::ios::binary);
      wire << amdrel::worker_stream_bytes();
      std::ofstream partial(
          amdrel::golden_path("sweep_partial.ndjson.golden"),
          std::ios::binary);
      partial << amdrel::partial_stream_bytes();
      std::ofstream table(amdrel::golden_path("sweep_table.txt.golden"),
                          std::ios::binary);
      table << amdrel::core::describe(summary);
      return json.good() && csv.good() && cache.good() && wire.good() &&
                     partial.good() && table.good()
                 ? 0
                 : 1;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
