// Every appender-based writer against its std::ostream original
// (tests/text_oracle.h): seeded random inputs are rendered both ways and
// must give equal bytes. The inputs are adversarial where the formats
// are delicate: strings full of quotes, backslashes, control bytes,
// commas and newlines; integers at INT64_MIN and below zero; empty
// vectors; cache saves that merge with a file on disk.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/wire.h"
#include "support/text.h"
#include "text_oracle.h"
#include "workloads/paper_models.h"

namespace amdrel {
namespace {

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return rng_() % n; }
  bool coin() { return rng_() % 2 == 0; }

  /// An integer of type T biased to its limits, zero and small values of
  /// either sign.
  template <typename T>
  T pick() {
    switch (below(6)) {
      case 0: return std::numeric_limits<T>::min();
      case 1: return std::numeric_limits<T>::max();
      case 2: return 0;
      case 3: return static_cast<T>(0 - static_cast<T>(below(1000)));
      case 4: return static_cast<T>(below(100000000));
      default: return static_cast<T>(rng_());
    }
  }

  /// A double of the kind the models produce, or a special value. The
  /// magnitudes stay inside what the original writers' fixed-size
  /// snprintf buffers hold (see text_oracle.h); `tiny` adds subnormals,
  /// which must not reach a ratio's denominator for the same reason.
  /// Summands of EnergyBreakdown::total_pj() get no NaN: which of two
  /// NaN operands a sum keeps depends on how the compiler ordered it, so
  /// the oracle and the writer could print totals of different sign.
  double real(bool tiny = false, bool nan = true) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double sign = coin() ? -1.0 : 1.0;
    switch (below(tiny ? 5 : 4)) {
      case 0: {
        constexpr double kSpecial[] = {
            0.0, -0.0, std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN(),
            -std::numeric_limits<double>::quiet_NaN()};
        return kSpecial[below(nan ? 6 : 4)];
      }
      case 1:  // an exact tie of %.4f
        return sign * static_cast<double>(2 * below(1u << 30) + 1) / 32.0;
      case 2:
        return sign * static_cast<double>(below(1000000));
      case 3:
        return sign * std::pow(10.0, -3.0 + 18.0 * unit(rng_));
      default:
        return sign * std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + below(1000));
    }
  }

  std::string text() {
    static const std::string kPool =
        std::string("\"\\,;\n\r\t abcXYZ019\x7f\xc3\xa9{}[]:") +
        "\x01\x02\x08\x0b\x0c\x1b\x1f";
    std::string out;
    for (std::size_t n = below(10); n > 0; --n) out += kPool[below(kPool.size())];
    return out;
  }

  core::Fingerprint key() { return {rng_(), rng_()}; }

  core::PartitionReport report() {
    core::PartitionReport r;
    r.app = text();
    r.timing_constraint = pick<std::int64_t>();
    r.objective = static_cast<core::ObjectiveKind>(below(3));
    r.energy_budget_pj = real(true);
    r.initial_cycles = pick<std::int64_t>();
    r.initial_energy_pj = real();
    r.initial_meets = coin();
    // The reader takes no integer past INT64_MAX.
    r.kernels_found = static_cast<std::size_t>(
        pick<std::int64_t>() & std::numeric_limits<std::int64_t>::max());
    for (std::size_t n = below(4); n > 0; --n) {
      r.moved.push_back(pick<ir::BlockId>());
    }
    r.cost.t_fpga = pick<std::int64_t>();
    r.cost.t_coarse = pick<std::int64_t>();
    r.cost.t_comm = pick<std::int64_t>();
    r.cost.t_reconfig = coin() ? 0 : pick<std::int64_t>();
    r.final_cycles = pick<std::int64_t>();
    r.cycles_in_cgc = pick<std::int64_t>();
    r.energy.fine_pj = real(true, false);
    r.energy.coarse_pj = real(true, false);
    r.energy.reconfig_pj = real(true, false);
    r.energy.comm_pj = real(true, false);
    r.floorplan_cost = coin() ? 0.0 : real(true);
    r.met = coin();
    r.engine_iterations = pick<int>();
    return r;
  }

  core::CachedCell cell() {
    core::CachedCell cell;
    cell.report = report();
    for (std::size_t i = 0; i < cell.report.moved.size(); ++i) {
      cell.moved_names.push_back(text());
    }
    return cell;
  }

  core::SweepSummary summary() {
    core::SweepSummary s;
    for (std::size_t n = 1 + below(4); n > 0; --n) s.apps.push_back(text());
    s.app_pareto.resize(s.apps.size());
    for (std::size_t n = below(30); n > 0; --n) {
      core::SweepCell c;
      c.app = below(s.apps.size());
      c.a_fpga = real(true);
      c.cgcs = pick<int>();
      c.platform_cost = real(true);
      c.constraint = pick<std::int64_t>();
      c.energy_budget_pj = real(true);
      c.strategy = static_cast<core::StrategyKind>(below(3));
      c.ordering = static_cast<core::KernelOrdering>(below(4));
      core::CachedCell cached = cell();
      c.report = std::move(cached.report);
      c.moved_names = std::move(cached.moved_names);
      c.on_app_pareto = coin();
      c.on_global_pareto = coin();
      if (c.on_app_pareto) s.app_pareto[c.app].push_back(s.cells.size());
      if (c.on_global_pareto) s.global_pareto.push_back(s.cells.size());
      s.cells.push_back(std::move(c));
    }
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

// The original with_thousands negates its argument; keep INT64_MIN away.
std::int64_t no_min(std::int64_t value) {
  return value == std::numeric_limits<std::int64_t>::min() ? value + 1
                                                           : value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TextOracleTest, CellPayloadsMatch) {
  Gen gen(1);
  for (int i = 0; i < 2000; ++i) {
    const core::CachedCell cell = gen.cell();
    std::ostringstream expected;
    oracle::write_cell_payload(expected, cell.report, cell.moved_names);
    EXPECT_EQ(text::render(core::CellPayload{cell.report, cell.moved_names}),
              expected.str());
  }
}

TEST(TextOracleTest, EveryWireLineKindMatches) {
  Gen gen(2);
  namespace wire = core::wire;
  for (int i = 0; i < 1000; ++i) {
    const wire::Header header{gen.pick<int>(), gen.pick<int>(),
                              gen.pick<int>(), gen.pick<std::size_t>()};
    const wire::ShardBegin shard{gen.pick<std::size_t>(),
                                 gen.pick<std::size_t>()};
    const core::CachedCell cell = gen.cell();
    const std::size_t slot = gen.pick<std::size_t>();
    const wire::WorkerDone done{gen.pick<std::size_t>()};
    wire::Assign assign;
    for (std::size_t n = gen.below(5); n > 0; --n) {
      assign.shards.push_back(gen.pick<std::size_t>());
    }

    std::ostringstream expected;
    oracle::encode_header(expected, header);
    oracle::encode_shard_begin(expected, shard);
    oracle::encode_cell(expected, shard.shard, slot, cell.report,
                        cell.moved_names);
    oracle::encode_worker_done(expected, done);
    expected << oracle::encode_assign(assign);
    std::ostringstream actual;
    wire::encode_header(actual, header);
    wire::encode_shard_begin(actual, shard);
    wire::encode_cell(actual, shard.shard, slot, cell.report,
                      cell.moved_names);
    wire::encode_worker_done(actual, done);
    actual << wire::encode_assign(assign);
    EXPECT_EQ(actual.str(), expected.str());
  }
}

// Two saves to one path: the first writes a fresh file, the second
// unions a second cache with it (shared keys included). Mapper snapshots
// stored in either cache never reach the file.
TEST(TextOracleTest, CacheFilesMatchThroughMerge) {
  Gen gen(3);
  const std::string path = testing::TempDir() + "text_oracle_cache.jsonl";
  for (int round = 0; round < 30; ++round) {
    std::remove(path.c_str());
    std::vector<oracle::CacheLine> first_lines;
    std::vector<oracle::CacheLine> union_lines;
    core::SweepCache first;
    core::SweepCache second;
    // Each entry of the first cache is, one time in three, held by the
    // second too; the union holds it once.
    auto add = [&](auto store, const oracle::CacheLine& line) {
      store(first);
      first_lines.push_back(line);
      union_lines.push_back(line);
      if (gen.below(3) == 0) store(second);
    };
    for (std::size_t n = gen.below(6); n > 0; --n) {
      const core::Fingerprint key = gen.key();
      const std::int64_t cycles = gen.pick<std::int64_t>();
      add([&](core::SweepCache& c) { c.store_all_fine(key, cycles); },
          oracle::all_fine_line(key, cycles));
    }
    for (std::size_t n = gen.below(6); n > 0; --n) {
      const core::Fingerprint key = gen.key();
      const core::CachedCell cell = gen.cell();
      add([&](core::SweepCache& c) { c.store_cell(key, cell); },
          oracle::cell_line(key, cell));
    }
    for (std::size_t n = gen.below(4); n > 0; --n) {
      const auto state = std::make_shared<const core::MapperState>();
      (gen.coin() ? first : second).store_mapper(gen.key(), state);
    }
    for (std::size_t n = gen.below(6); n > 0; --n) {
      const core::Fingerprint key = gen.key();
      const core::CachedCell cell = gen.cell();
      second.store_cell(key, cell);
      union_lines.push_back(oracle::cell_line(key, cell));
    }

    std::string error;
    ASSERT_TRUE(first.save(path, &error)) << error;
    // The second save merges with this file only if the strict reader
    // takes it.
    core::SweepCache reader;
    ASSERT_TRUE(reader.load(path, &error)) << error;
    EXPECT_EQ(read_file(path), oracle::cache_file(first_lines))
        << "round " << round;

    ASSERT_TRUE(second.save(path, &error)) << error;
    EXPECT_EQ(read_file(path), oracle::cache_file(union_lines))
        << "round " << round;
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(TextOracleTest, EmissionsMatch) {
  Gen gen(4);
  for (int i = 0; i < 300; ++i) {
    const core::SweepSummary summary = gen.summary();
    EXPECT_EQ(core::sweep_to_json(summary), oracle::sweep_to_json(summary));
    EXPECT_EQ(core::sweep_to_csv(summary), oracle::sweep_to_csv(summary));

    std::ostringstream expected;
    std::ostringstream actual;
    const std::size_t shard = gen.pick<std::size_t>();
    oracle::write_partial_stream_header(expected, shard);
    core::write_partial_stream_header(actual, shard);
    oracle::write_partial_stream_shard(expected, summary.apps, shard,
                                       summary.cells.data(),
                                       summary.cells.size());
    core::write_partial_stream_shard(actual, summary.apps, shard,
                                     summary.cells.data(),
                                     summary.cells.size());
    EXPECT_EQ(actual.str(), expected.str());

    core::SweepCacheStats stats;
    if (gen.coin()) {  // otherwise no lookups: the rate is "0.00"
      stats.cell_hits = gen.below(1000000);
      stats.cell_misses = gen.below(1000000);
    }
    stats.mapper_restores = gen.pick<std::uint64_t>();
    stats.mapper_builds = gen.pick<std::uint64_t>();
    stats.all_fine_hits = gen.pick<std::uint64_t>();
    stats.all_fine_misses = gen.pick<std::uint64_t>();
    stats.cells = gen.pick<std::uint64_t>();
    stats.entries_loaded = gen.pick<std::uint64_t>();
    stats.lock_degraded = gen.pick<std::uint64_t>();
    EXPECT_EQ(core::cache_stats_to_json(stats),
              oracle::cache_stats_to_json(stats));
  }
}

TEST(TextOracleTest, SweepTablesMatch) {
  Gen gen(5);
  for (int i = 0; i < 300; ++i) {
    core::SweepSummary summary = gen.summary();
    for (core::SweepCell& cell : summary.cells) {
      cell.constraint = no_min(cell.constraint);
      cell.report.final_cycles = no_min(cell.report.final_cycles);
    }
    EXPECT_EQ(core::describe(summary), oracle::describe(summary));
  }
}

TEST(TextOracleTest, TextTablesMatch) {
  Gen gen(6);
  for (int i = 0; i < 500; ++i) {
    auto row = [&] {
      std::vector<std::string> cells;
      for (std::size_t n = gen.below(6); n > 0; --n) cells.push_back(gen.text());
      return cells;
    };
    const std::vector<std::string> header = row();
    core::TextTable table(header);
    oracle::TextTable expected(header);
    for (std::size_t n = gen.below(8); n > 0; --n) {
      const std::vector<std::string> cells = row();
      table.add_row(cells);
      expected.add_row(cells);
    }
    EXPECT_EQ(table.to_string(), expected.to_string());
  }
}

TEST(TextOracleTest, ThousandsMatchAwayFromInt64Min) {
  Gen gen(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t value = no_min(gen.pick<std::int64_t>());
    EXPECT_EQ(core::with_thousands(value), oracle::with_thousands(value));
  }
}

TEST(TextOracleTest, MethodologyReportsMatch) {
  const std::vector<core::CorpusApp> corpus = workloads::paper_corpus();
  Gen gen(8);
  for (int i = 0; i < 1000; ++i) {
    const core::CorpusApp& app = corpus[gen.below(corpus.size())];
    core::PartitionReport report = gen.report();
    for (ir::BlockId& block : report.moved) {
      block = static_cast<ir::BlockId>(gen.below(app.cdfg.blocks().size()));
    }
    for (std::int64_t* value :
         {&report.timing_constraint, &report.initial_cycles,
          &report.final_cycles, &report.cost.t_fpga, &report.cost.t_coarse,
          &report.cost.t_comm, &report.cost.t_reconfig}) {
      *value = no_min(*value);
    }
    EXPECT_EQ(core::describe(report, app.cdfg),
              oracle::describe(report, app.cdfg));
  }
}

}  // namespace
}  // namespace amdrel
