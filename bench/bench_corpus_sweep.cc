// Scaling of the platform-grid x corpus sweep: wall time of the sharded
// explorer against worker-thread count and corpus size. The shard unit is
// one (app, platform) cell group, so speedup should track the shard
// count until it saturates.

// The cold/warm pair at the bottom measures the content-addressed sweep
// cache (core/sweep_cache.h): identical rerun traffic should collapse to
// fingerprint lookups, so the warm benchmark records the cache's
// speedup in the bench JSON the CI regression gate archives.

#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/explorer.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "synth/cdfg_generator.h"
#include "workloads/paper_models.h"

namespace {

using namespace amdrel;

std::vector<core::CorpusApp> make_corpus(int synthetic_apps) {
  std::vector<core::CorpusApp> corpus = workloads::paper_corpus();
  for (int i = 0; i < synthetic_apps; ++i) {
    synth::CdfgGenConfig config;
    config.segments = 5;
    config.seed = 100 + static_cast<std::uint64_t>(i);
    synth::SyntheticApp synthetic = synth::generate_app(config);
    core::CorpusApp app;
    app.name = "synthetic" + std::to_string(i);
    app.cdfg = std::move(synthetic.cdfg);
    app.profile = std::move(synthetic.profile);
    corpus.push_back(std::move(app));
  }
  return corpus;
}

core::SweepSpec make_spec(int threads) {
  core::SweepSpec spec;
  spec.grid.areas = {800, 1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {core::StrategyKind::kGreedyPaper,
                     core::StrategyKind::kAnnealing};
  spec.threads = threads;
  return spec;
}

void BM_CorpusSweepThreads(benchmark::State& state) {
  const auto corpus = make_corpus(6);
  const auto spec = make_spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sweep_design_space(corpus, spec));
  }
}
BENCHMARK(BM_CorpusSweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CorpusSweepApps(benchmark::State& state) {
  const auto corpus = make_corpus(static_cast<int>(state.range(0)));
  const auto spec = make_spec(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sweep_design_space(corpus, spec));
  }
}
BENCHMARK(BM_CorpusSweepApps)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Cold cache: every cell misses, so this pays the uncached work plus
// fingerprinting — the cache's overhead bound.
void BM_CorpusSweepColdCache(benchmark::State& state) {
  const auto corpus = make_corpus(6);
  auto spec = make_spec(4);
  for (auto _ : state) {
    core::SweepCache cache;
    spec.cache = &cache;
    benchmark::DoNotOptimize(core::sweep_design_space(corpus, spec));
  }
}
BENCHMARK(BM_CorpusSweepColdCache)->Unit(benchmark::kMillisecond);

// Warm cache: the same sweep replayed against a populated cache — the
// steady state of repeated CI runs and recurring sweep traffic.
void BM_CorpusSweepWarmCache(benchmark::State& state) {
  const auto corpus = make_corpus(6);
  auto spec = make_spec(4);
  core::SweepCache cache;
  spec.cache = &cache;
  core::sweep_design_space(corpus, spec);  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sweep_design_space(corpus, spec));
  }
}
BENCHMARK(BM_CorpusSweepWarmCache)->Unit(benchmark::kMillisecond);

// Lock contention on the sharded in-memory index: N threads hammer
// get/put on a shared cache. Each thread walks its own key sequence
// (hit on its own writes, miss on a rotated range), so the measurement
// is dominated by index locking, not payload construction. The /1 arg
// is the uncontended reference for the /4 and /16 rows of the cache's
// 16-bucket index.
void BM_CacheContention(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr std::uint64_t kKeysPerThread = 256;
  core::SweepCache cache;
  core::CachedCell cell;
  cell.report.app = "contention";
  cell.report.final_cycles = 1;
  cell.report.moved = {1};
  cell.moved_names = {"BB1"};
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&cache, &cell, t] {
        const auto base =
            static_cast<std::uint64_t>(t) * kKeysPerThread;
        core::Fingerprint key;
        key.hi = 0xc0ffee;
        for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
          key.lo = base + i;
          cache.store_cell(key, cell);
          benchmark::DoNotOptimize(cache.find_cell(key));
          key.lo = base + kKeysPerThread + i;  // someone else's range
          benchmark::DoNotOptimize(cache.find_cell(key));
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kKeysPerThread * 3);
}
BENCHMARK(BM_CacheContention)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepJsonEmission(benchmark::State& state) {
  const auto summary = core::sweep_design_space(make_corpus(6), make_spec(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sweep_to_json(summary));
  }
}
BENCHMARK(BM_SweepJsonEmission);

}  // namespace

BENCHMARK_MAIN();
