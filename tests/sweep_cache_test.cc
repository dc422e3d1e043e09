// SweepCache (core/sweep_cache.h): memoization correctness (cached runs
// byte-identical to uncached, for any thread count), the in-memory
// mapper-snapshot memo (which the sweep leaves empty), and the
// persistence layer's strict validation — a cache file that fails ANY
// check is rejected whole and the caller runs cold, so a stale or
// corrupt cache can cost a recompute but never a wrong result.

#include "core/sweep_cache.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/kernels.h"
#include "core/explorer.h"
#include "core/json_lines.h"
#include "core/sweep_io.h"
#include "core/wire.h"
#include "support/error.h"
#include "synth/cdfg_generator.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

SweepSpec small_spec(int threads, SweepCache* cache) {
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kAnnealing};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = threads;
  spec.cache = cache;
  return spec;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(SweepCacheTest, CellRoundTrip) {
  SweepCache cache;
  Fingerprint key;
  key.hi = 1;
  key.lo = 2;
  EXPECT_FALSE(cache.find_cell(key).has_value());
  CachedCell cell;
  cell.report.app = "ofdm";
  cell.report.final_cycles = 123;
  cell.moved_names = {"BB22"};
  cache.store_cell(key, cell);
  const auto hit = cache.find_cell(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report.app, "ofdm");
  EXPECT_EQ(hit->report.final_cycles, 123);
  EXPECT_EQ(hit->moved_names, std::vector<std::string>{"BB22"});
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.cell_hits, 1u);
  EXPECT_EQ(stats.cell_misses, 1u);
  EXPECT_EQ(stats.cells, 1u);
}

TEST(SweepCacheTest, CachedSweepIsByteIdenticalToUncached) {
  const auto corpus = workloads::paper_corpus();
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, small_spec(2, nullptr)));

  SweepCache cache;
  const auto cold = sweep_design_space(corpus, small_spec(2, &cache));
  EXPECT_EQ(sweep_to_json(cold), uncached);
  EXPECT_GT(cache.stats().cell_misses, 0u);
  EXPECT_EQ(cache.stats().cell_hits, 0u);

  // Warm rerun: every cell hits, no mapper is cold-built or restored.
  for (const int threads : {1, 2, 4}) {
    const SweepCacheStats before = cache.stats();
    const auto warm = sweep_design_space(corpus, small_spec(threads, &cache));
    EXPECT_EQ(sweep_to_json(warm), uncached) << threads << " threads";
    EXPECT_EQ(sweep_to_csv(warm), sweep_to_csv(cold));
    const SweepCacheStats stats = cache.stats();
    EXPECT_EQ(stats.cell_misses, before.cell_misses) << threads << " threads";
    EXPECT_GT(stats.cell_hits, before.cell_hits);
    EXPECT_EQ(stats.mapper_builds, before.mapper_builds)
        << threads << " threads";
    EXPECT_EQ(stats.all_fine_misses, before.all_fine_misses);
  }
}

TEST(SweepCacheTest, SyntheticCorpusCachedEqualsUncachedAnyThreads) {
  std::vector<CorpusApp> corpus;
  for (int i = 0; i < 4; ++i) {
    synth::CdfgGenConfig config;
    config.segments = 3;
    config.seed = 77 + static_cast<std::uint64_t>(i);
    synth::SyntheticApp app = synth::generate_app(config);
    CorpusApp entry;
    entry.name = "synthetic" + std::to_string(i);
    entry.cdfg = std::move(app.cdfg);
    entry.profile = std::move(app.profile);
    corpus.push_back(std::move(entry));
  }
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, small_spec(3, nullptr)));
  SweepCache cache;
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    EXPECT_EQ(
        sweep_to_json(sweep_design_space(corpus, small_spec(threads, &cache))),
        uncached)
        << threads << " threads";
  }
}

TEST(SweepCacheTest, PersistenceRoundTripStartsWarm) {
  const auto corpus = workloads::paper_corpus();
  const std::string path = temp_path("sweep_cache_roundtrip.jsonl");
  std::string uncached;
  {
    SweepCache cache;
    uncached =
        sweep_to_json(sweep_design_space(corpus, small_spec(2, &cache)));
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  SweepCache fresh;
  std::string error;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  EXPECT_GT(fresh.stats().entries_loaded, 0u);
  const auto warm = sweep_design_space(corpus, small_spec(2, &fresh));
  EXPECT_EQ(sweep_to_json(warm), uncached);
  const SweepCacheStats stats = fresh.stats();
  EXPECT_EQ(stats.cell_misses, 0u);
  EXPECT_EQ(stats.mapper_builds, 0u);
  EXPECT_EQ(stats.all_fine_misses, 0u);
  std::remove(path.c_str());
}

TEST(SweepCacheTest, SaveIsDeterministic) {
  const auto corpus = workloads::paper_corpus();
  auto render = [&](int threads) {
    SweepCache cache;
    sweep_design_space(corpus, small_spec(threads, &cache));
    const std::string path = temp_path("sweep_cache_det.jsonl");
    std::string error;
    EXPECT_TRUE(cache.save(path, &error)) << error;
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return text;
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(2));
  EXPECT_EQ(serial, render(4));
}

TEST(SweepCacheTest, LoadRejectsMissingFile) {
  SweepCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(temp_path("no_such_cache.jsonl"), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void expect_rejected(const std::string& content, const char* expect_in_error,
                     const char* tag) {
  const std::string path =
      temp_path((std::string("sweep_cache_bad_") + tag + ".jsonl").c_str());
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  SweepCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path, &error)) << tag << ": accepted " << content;
  EXPECT_NE(error.find(expect_in_error), std::string::npos)
      << tag << ": error was '" << error << "'";
  // A rejected load leaves the cache empty and usable.
  EXPECT_EQ(cache.stats().cells, 0u);
  EXPECT_EQ(cache.stats().entries_loaded, 0u);
  std::remove(path.c_str());
}

// A header this build accepts, built from the live constants so the
// corrupt-entry cases below keep testing ENTRY validation after version
// bumps (a stale hardcoded header would trip the version check first).
std::string current_header() {
  std::ostringstream os;
  os << "{\"kind\":\"header\",\"schema_version\":" << kSweepCacheSchemaVersion
     << ",\"fingerprint_algorithm\":" << kFingerprintAlgorithmVersion
     << ",\"generator\":\"amdrel\"}\n";
  return os.str();
}

TEST(SweepCacheTest, LoadRejectsCorruptFiles) {
  expect_rejected("garbage\n", "not a JSON object", "garbage");
  expect_rejected("", "empty cache file", "empty");
  expect_rejected("{\"kind\":\"cell\"}\n", "missing header", "no_header");
  expect_rejected(
      "{\"kind\":\"header\",\"schema_version\":999,"
      "\"fingerprint_algorithm\":1}\n",
      "schema_version 999", "schema_mismatch");
  expect_rejected(
      "{\"kind\":\"header\",\"schema_version\":" +
          std::to_string(kSweepCacheSchemaVersion) +
          ",\"fingerprint_algorithm\":999}\n",
      "fingerprint_algorithm 999", "algorithm_mismatch");
  expect_rejected(current_header() + "{\"kind\":\"cell\"}\n",
                  "missing \"key\"", "keyless");
  expect_rejected(
      current_header() +
          "{\"kind\":\"cell\",\"key\":\"zz\"}\n",
      "malformed key", "bad_key");
  expect_rejected(
      current_header() +
          "{\"kind\":\"wat\",\"key\":"
          "\"00000000000000000000000000000001\"}\n",
      "unknown kind", "unknown_kind");
  expect_rejected(
      current_header() +
          "{\"kind\":\"all_fine\",\"key\":"
          "\"00000000000000000000000000000001\"}\n",
      "malformed all_fine", "all_fine_no_cycles");
  expect_rejected(
      current_header() +
          "{\"kind\":\"all_fine\",\"key\":"
          "\"00000000000000000000000000000001\",\"cycles\":1}\n" +
          "{\"kind\":\"all_fine\",\"key\":"
          "\"00000000000000000000000000000001\",\"cycles\":2}\n",
      "duplicate key", "duplicate");
  expect_rejected(
      current_header() +
          "{\"kind\":\"cell\",\"key\":"
          "\"00000000000000000000000000000001\",\"app\":\"x\"}\n",
      "malformed cell", "cell_missing_fields");
  // Truncated mid-line JSON (a crashed writer).
  expect_rejected(
      current_header() +
          "{\"kind\":\"all_fine\",\"key\":"
          "\"00000000000000000000000000000001\",\"cy",
      "not a JSON object", "truncated");
}

TEST(SweepCacheTest, LoadAcceptsOwnSave) {
  // A saved cache containing a cell with every serialized field must
  // round-trip exactly, including kernels and moved names.
  // A one-app corpus on the default one-point grid.
  const auto ofdm = workloads::build_ofdm_model();
  const std::vector<CorpusApp> corpus = {{"ofdm", ofdm.cdfg, ofdm.profile}};
  SweepCache cache;
  SweepSpec spec;
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  spec.cache = &cache;
  const auto summary = sweep_design_space(corpus, spec);
  ASSERT_FALSE(summary.cells.empty());

  const std::string path = temp_path("sweep_cache_ownsave.jsonl");
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  SweepCache fresh;
  ASSERT_TRUE(fresh.load(path, &error)) << error;

  SweepSpec warm_spec = spec;
  warm_spec.cache = &fresh;
  const auto warm = sweep_design_space(corpus, warm_spec);
  EXPECT_EQ(describe(warm), describe(summary));
  EXPECT_EQ(fresh.stats().cell_misses, 0u);

  // The reloaded report matches the original field by field.
  const PartitionReport& a = summary.cells.front().report;
  const PartitionReport& b = warm.cells.front().report;
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.timing_constraint, b.timing_constraint);
  EXPECT_EQ(a.initial_cycles, b.initial_cycles);
  EXPECT_EQ(a.initial_meets, b.initial_meets);
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_EQ(a.cost.t_fpga, b.cost.t_fpga);
  EXPECT_EQ(a.cost.t_coarse, b.cost.t_coarse);
  EXPECT_EQ(a.cost.t_comm, b.cost.t_comm);
  EXPECT_EQ(a.final_cycles, b.final_cycles);
  EXPECT_EQ(a.cycles_in_cgc, b.cycles_in_cgc);
  EXPECT_EQ(a.met, b.met);
  EXPECT_EQ(a.engine_iterations, b.engine_iterations);
  EXPECT_EQ(a.kernels_found, b.kernels_found);
  EXPECT_EQ(summary.cells.front().moved_names, warm.cells.front().moved_names);
  std::remove(path.c_str());
}

// A report carries only the length of the step-3 kernel list. It must
// survive the cache file and the wire exactly: 0 for a cell the
// all-fine solution already meets, the analysis list's length otherwise.
TEST(SweepCacheTest, KernelsFoundRoundTripsThroughCacheAndWire) {
  const auto ofdm = workloads::build_ofdm_model();
  const std::vector<CorpusApp> corpus = {{"ofdm", ofdm.cdfg, ofdm.profile}};
  SweepCache cache;
  SweepSpec spec;
  spec.constraints = {workloads::kOfdmTimingConstraint, 1'000'000'000'000};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  spec.cache = &cache;
  const auto summary = sweep_design_space(corpus, spec);
  const std::size_t analysed =
      analysis::extract_kernels(ofdm.cdfg, ofdm.profile).size();
  ASSERT_GT(analysed, 0u);
  bool saw_met = false;
  bool saw_open = false;
  for (const SweepCell& cell : summary.cells) {
    const PartitionReport& r = cell.report;
    EXPECT_EQ(r.kernels_found, r.initial_meets ? 0u : analysed) << r.app;
    (r.initial_meets ? saw_met : saw_open) = true;
  }
  ASSERT_TRUE(saw_met && saw_open);

  const std::string path = temp_path("sweep_cache_kernels_found.jsonl");
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  SweepCache fresh;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  SweepSpec warm_spec = spec;
  warm_spec.cache = &fresh;
  const auto warm = sweep_design_space(corpus, warm_spec);
  EXPECT_EQ(fresh.stats().cell_misses, 0u);
  ASSERT_EQ(warm.cells.size(), summary.cells.size());
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& cell = summary.cells[i];
    EXPECT_EQ(warm.cells[i].report.kernels_found, cell.report.kernels_found);

    std::ostringstream line;
    wire::encode_cell(line, 0, i, cell.report, cell.moved_names);
    jsonl::JsonValue object;
    ASSERT_TRUE(wire::parse_line(line.str().substr(0, line.str().size() - 1),
                                 object));
    wire::Cell decoded;
    ASSERT_TRUE(wire::decode_cell(object, decoded));
    EXPECT_EQ(decoded.payload.report.kernels_found, cell.report.kernels_found);
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(SweepCacheTest, SaveReportsUnwritablePath) {
  SweepCache cache;
  std::string error;
  EXPECT_FALSE(cache.save("/nonexistent-amdrel-dir/cache.jsonl", &error));
  EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
}

TEST(SweepCacheTest, MapperSnapshotRestoresIdenticalCosts) {
  const auto app = workloads::build_jpeg_model();
  const auto platform = platform::make_paper_platform(1500, 2);
  HybridMapper original(app.cdfg, platform);
  const MapperState state = original.state();
  HybridMapper restored(app.cdfg, platform, state);
  EXPECT_EQ(original.all_fine_cycles(app.profile),
            restored.all_fine_cycles(app.profile));
  for (ir::BlockId block = 0; block < app.cdfg.size(); ++block) {
    EXPECT_EQ(original.fine_cycles_per_invocation(block),
              restored.fine_cycles_per_invocation(block));
    if (original.cgc_eligible(block)) {
      EXPECT_EQ(original.coarse_cycles_per_invocation(block),
                restored.coarse_cycles_per_invocation(block));
    }
  }
}

TEST(SweepCacheTest, MapperSnapshotRejectsWrongBlockCount) {
  const auto ofdm = workloads::build_ofdm_model();
  const auto jpeg = workloads::build_jpeg_model();
  const auto platform = platform::make_paper_platform(1500, 2);
  const MapperState state = HybridMapper(ofdm.cdfg, platform).state();
  EXPECT_THROW(HybridMapper(jpeg.cdfg, platform, state), Error);
}

Fingerprint key_of(std::uint64_t hi, std::uint64_t lo) {
  Fingerprint key;
  key.hi = hi;
  key.lo = lo;
  return key;
}

CachedCell cell_named(const std::string& app, std::int64_t cycles) {
  CachedCell cell;
  cell.report.app = app;
  cell.report.final_cycles = cycles;
  cell.report.moved = {1};  // moved_names must stay parallel to moved
  cell.moved_names = {"BB1"};
  return cell;
}

// Saves `cache` to a temp file and returns the bytes.
std::string saved_bytes(const SweepCache& cache, const char* tag) {
  const std::string path =
      temp_path((std::string("sweep_cache_saved_") + tag + ".jsonl").c_str());
  std::remove(path.c_str());
  std::string error;
  EXPECT_TRUE(cache.save(path, &error)) << error;
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return bytes;
}

// Returns `bytes` with the first `from` replaced by `to` (which must be
// there, so a codec change cannot turn a case into a no-op).
std::string edited(std::string bytes, const std::string& from,
                   const std::string& to) {
  const std::size_t at = bytes.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) bytes.replace(at, from.size(), to);
  return bytes;
}

// A v5 cell line carries "kernels_found", a non-negative count, and no
// "kernels" rows; every decode that narrows an int64 rejects a value
// past its field's range (2^32 + k used to wrap silently to k).
TEST(SweepCacheTest, LoadRejectsCellsOutsideTheV5Payload) {
  SweepCache cache;
  CachedCell cell = cell_named("x", 7);
  cell.report.engine_iterations = 2;
  cell.report.kernels_found = 3;
  cache.store_cell(key_of(1, 1), cell);
  const std::string good = saved_bytes(cache, "v5_cell");
  {
    const std::string path = temp_path("sweep_cache_v5_cell.jsonl");
    std::ofstream(path, std::ios::binary) << good;
    SweepCache loaded;
    std::string error;
    ASSERT_TRUE(loaded.load(path, &error)) << error;
    EXPECT_EQ(loaded.find_cell(key_of(1, 1))->report.kernels_found, 3u);
    std::remove(path.c_str());
  }
  const char* malformed = "malformed cell entry";
  expect_rejected(edited(good, "\"kernels_found\":3,",
                         "\"kernels_found\":3,\"kernels\":[[1,2,3,4,5,1]],"),
                  malformed, "kernels_rows");
  expect_rejected(edited(good, "\"kernels_found\":3,",
                         "\"kernels\":[[1,2,3,4,5,1]],"),
                  malformed, "v4_cell");
  expect_rejected(edited(good, "\"kernels_found\":3,", ""), malformed,
                  "kernels_found_missing");
  expect_rejected(edited(good, "\"kernels_found\":3", "\"kernels_found\":-1"),
                  malformed, "kernels_found_negative");
  expect_rejected(
      edited(good, "\"kernels_found\":3", "\"kernels_found\":\"3\""),
      malformed, "kernels_found_string");
  expect_rejected(edited(good, "\"engine_iterations\":2",
                         "\"engine_iterations\":4294967298"),
                  malformed, "iterations_wrap");
  expect_rejected(edited(good, "\"moved\":[1]", "\"moved\":[4294967297]"),
                  malformed, "moved_wrap");
}

// The reader shares the wire's parser, so it rejects the three inputs
// no writer produces: a leading zero, a raw control byte inside a
// string, and a repeated key.
TEST(SweepCacheTest, LoadRejectsLeadingZerosRawControlBytesAndDuplicateKeys) {
  SweepCache cache;
  cache.store_cell(key_of(1, 1), cell_named("x", 7));
  const std::string good = saved_bytes(cache, "strict_json");
  const char* bad_json = "not a JSON object";
  expect_rejected(edited(good, "\"final_cycles\":7", "\"final_cycles\":07"),
                  bad_json, "leading_zero");
  expect_rejected(edited(good, "\"app\":\"x\"", "\"app\":\"x\ty\""),
                  bad_json, "raw_tab");
  expect_rejected(edited(good, "\"met\":false",
                         "\"met\":false,\"met\":true"),
                  bad_json, "duplicate_met");
}

// A cache file in the previous schema (v5: a header "generation", a
// "gen" stamp on every line and "mapper" lines) is rejected whole, and a
// sweep over it recomputes cold with the uncached bytes; saving then
// replaces the stale file with one in the current format.
TEST(SweepCacheTest, StaleV5CacheFileIsRejectedAndRecomputedCold) {
  const auto corpus = workloads::paper_corpus();
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, small_spec(2, nullptr)));
  const std::string path = temp_path("sweep_cache_stale_v5.jsonl");
  std::remove(path.c_str());
  {
    SweepCache cache;
    sweep_design_space(corpus, small_spec(2, &cache));
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  // The v5 layout of the same entries, plus a mapper line keyed like the
  // first all-fine entry (both were shard keys).
  std::istringstream lines(slurp(path));
  std::string v5;
  std::string line;
  std::string mapper_key;
  while (std::getline(lines, line)) {
    const std::size_t key = line.find("\"key\":\"");
    if (key == std::string::npos) {
      line = edited(line,
                    "\"schema_version\":" +
                        std::to_string(kSweepCacheSchemaVersion) + ",",
                    "\"schema_version\":5,");
      line = edited(line, "\"generator\"", "\"generation\":1,\"generator\"");
    } else {
      if (mapper_key.empty()) mapper_key = line.substr(key + 7, 32);
      line.insert(line.find("\",", key) + 2, "\"gen\":1,");
    }
    v5 += line + '\n';
  }
  v5 += "{\"kind\":\"mapper\",\"key\":\"" + mapper_key +
        "\",\"gen\":1,\"fine\":[],\"coarse\":[]}\n";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << v5;

  SweepCache stale;
  std::string error;
  EXPECT_FALSE(stale.load(path, &error));
  EXPECT_NE(error.find("schema_version 5 (this build reads " +
                       std::to_string(kSweepCacheSchemaVersion) + ")"),
            std::string::npos)
      << error;
  EXPECT_EQ(stale.stats().cells, 0u);
  EXPECT_EQ(sweep_to_json(sweep_design_space(corpus, small_spec(2, &stale))),
            uncached);
  EXPECT_EQ(stale.stats().cell_hits, 0u);

  ASSERT_TRUE(stale.save(path, &error)) << error;
  const std::string replaced_bytes = slurp(path);
  EXPECT_EQ(replaced_bytes.find("\"mapper\""), std::string::npos);
  EXPECT_EQ(replaced_bytes.find("\"gen\":"), std::string::npos);
  EXPECT_EQ(replaced_bytes.find("\"generation\""), std::string::npos);
  SweepCache replaced;
  ASSERT_TRUE(replaced.load(path, &error)) << error;
  EXPECT_EQ(sweep_to_json(sweep_design_space(corpus, small_spec(2, &replaced))),
            uncached);
  EXPECT_EQ(replaced.stats().cell_misses, 0u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// Mapper snapshots live in memory only: a "mapper" line spliced into a
// current-schema file is an unknown kind, and the whole file is rejected.
TEST(SweepCacheTest, LoadRejectsASplicedMapperLine) {
  SweepCache cache;
  cache.store_all_fine(key_of(2, 1), 1000);
  cache.store_cell(key_of(1, 1), cell_named("x", 7));
  cache.store_mapper(key_of(2, 1), std::make_shared<const MapperState>());
  const std::string good = saved_bytes(cache, "spliced_mapper");
  ASSERT_EQ(good.find("\"mapper\""), std::string::npos) << good;
  expect_rejected(good +
                      "{\"kind\":\"mapper\",\"key\":"
                      "\"00000000000000020000000000000001\","
                      "\"fine\":[],\"coarse\":[]}\n",
                  "unknown kind \"mapper\"", "spliced_mapper");
}

TEST(SweepCacheTest, CachedResultsAreThreadCountFree) {
  // The memoized sweep must be byte-identical whatever the thread count
  // — the sharded index moves lock boundaries, never results.
  const auto corpus = workloads::paper_corpus();
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, small_spec(2, nullptr)));
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  SweepCache cache;
  for (const int threads : {1, 2, hw}) {
    EXPECT_EQ(sweep_to_json(
                  sweep_design_space(corpus, small_spec(threads, &cache))),
              uncached)
        << threads << " threads";
  }
  // Warm by now: every cell hit, nothing rebuilt.
  const SweepCacheStats before = cache.stats();
  sweep_design_space(corpus, small_spec(2, &cache));
  EXPECT_EQ(cache.stats().cell_misses, before.cell_misses);
  EXPECT_EQ(cache.stats().mapper_builds, before.mapper_builds);
}

TEST(SweepCacheTest, StatsAggregateAcrossShards) {
  SweepCache cache;
  // Keys chosen to land on every one of the 16 buckets (shard = lo % 16).
  for (std::uint64_t lo = 0; lo < 24; ++lo) {
    cache.store_cell(key_of(1, lo), cell_named("app", 100));
  }
  for (std::uint64_t lo = 0; lo < 24; ++lo) {
    EXPECT_TRUE(cache.find_cell(key_of(1, lo)).has_value());
    EXPECT_FALSE(cache.find_cell(key_of(2, lo)).has_value());
  }
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.cells, 24u);
  EXPECT_EQ(stats.cell_hits, 24u);
  EXPECT_EQ(stats.cell_misses, 24u);
}

// The last-writer-wins regression: two caches with disjoint entries save
// to the same path one after the other. Before merge-on-save the second
// save clobbered the first; now the file must hold the union.
TEST(SweepCacheTest, MergeOnSavePreservesTheEarlierWritersEntries) {
  const std::string path = temp_path("sweep_cache_merge_on_save.jsonl");
  std::remove(path.c_str());
  {
    SweepCache first;
    first.store_cell(key_of(1, 1), cell_named("first", 1));
    first.store_all_fine(key_of(2, 1), 10);
    std::string error;
    ASSERT_TRUE(first.save(path, &error)) << error;
  }
  {
    SweepCache second;  // never saw the file: cold process, disjoint keys
    second.store_cell(key_of(1, 2), cell_named("second", 2));
    second.store_all_fine(key_of(2, 2), 20);
    std::string error;
    ASSERT_TRUE(second.save(path, &error)) << error;
  }
  SweepCache loaded;
  std::string error;
  ASSERT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_EQ(loaded.stats().entries_loaded, 4u);
  EXPECT_TRUE(loaded.find_cell(key_of(1, 1)).has_value());
  EXPECT_TRUE(loaded.find_cell(key_of(1, 2)).has_value());
  EXPECT_TRUE(loaded.find_all_fine(key_of(2, 1)).has_value());
  EXPECT_TRUE(loaded.find_all_fine(key_of(2, 2)).has_value());
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// A corrupt target file must not poison a save: the strict-parse
// backstop discards it and the save simply overwrites.
TEST(SweepCacheTest, SaveOverwritesACorruptTargetFile) {
  const std::string path = temp_path("sweep_cache_corrupt_target.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a cache\n";
  }
  SweepCache cache;
  cache.store_cell(key_of(1, 1), cell_named("fresh", 1));
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  SweepCache loaded;
  ASSERT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_EQ(loaded.stats().entries_loaded, 1u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// The multi-process acceptance property: several writer processes, each
// holding a disjoint slice of entries, save to one path concurrently.
// The advisory lock serializes the load-merge-write cycles, so the
// final file is the full union — zero entries lost.
TEST(SweepCacheTest, ConcurrentWriterProcessesLoseNoEntries) {
  const std::string path = temp_path("sweep_cache_concurrent.jsonl");
  std::remove(path.c_str());
  constexpr int kWriters = 4;
  constexpr std::uint64_t kEntriesEach = 25;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      SweepCache mine;
      for (std::uint64_t i = 0; i < kEntriesEach; ++i) {
        const auto lo = static_cast<std::uint64_t>(w) * kEntriesEach + i;
        mine.store_cell(key_of(1, lo),
                        cell_named("w" + std::to_string(w),
                                   static_cast<std::int64_t>(lo)));
      }
      std::string error;
      // Repeated saves widen the race window the lock must close.
      const bool ok =
          mine.save(path, &error) && mine.save(path, &error);
      _exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "writer exited with status " << status;
  }

  SweepCache loaded;
  std::string error;
  ASSERT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_EQ(loaded.stats().entries_loaded, kWriters * kEntriesEach);
  for (std::uint64_t lo = 0; lo < kWriters * kEntriesEach; ++lo) {
    EXPECT_TRUE(loaded.find_cell(key_of(1, lo)).has_value()) << lo;
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(SweepCacheTest, CacheStatsJsonShape) {
  SweepCacheStats stats;
  stats.cell_hits = 3;
  stats.cell_misses = 1;
  stats.cells = 4;
  stats.lock_degraded = 2;
  const std::string json = cache_stats_to_json(stats);
  EXPECT_NE(json.find("\"cell_hits\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cell_hit_rate\": \"0.75\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lock_degraded\": 2"), std::string::npos) << json;
  EXPECT_EQ(json.find("entries_evicted"), std::string::npos) << json;
  const std::string empty = cache_stats_to_json(SweepCacheStats{});
  EXPECT_NE(empty.find("\"cell_hit_rate\": \"0.00\""), std::string::npos)
      << empty;
}

// Mapper snapshots are not persisted: a FRESH process sweeping the same
// apps under DIFFERENT constraints misses every cell (the constraint is
// part of the cell fingerprint) and cold-builds one mapper per shard,
// with the bytes of an uncached run.
TEST(SweepCacheTest, WarmFileRebuildsMappersAcrossConstraintChanges) {
  const auto corpus = workloads::paper_corpus();
  const std::string path = temp_path("sweep_cache_mapper_warm.jsonl");
  std::remove(path.c_str());
  {
    SweepCache cache;
    SweepSpec spec = small_spec(2, &cache);
    spec.constraints = {60000};
    sweep_design_space(corpus, spec);
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  SweepSpec uncached_spec = small_spec(2, nullptr);
  uncached_spec.constraints = {70000};  // new constraint: all cells miss
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, uncached_spec));
  SweepCache fresh;
  std::string error;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  SweepSpec spec = uncached_spec;
  spec.cache = &fresh;
  EXPECT_EQ(sweep_to_json(sweep_design_space(corpus, spec)), uncached);
  const SweepCacheStats stats = fresh.stats();
  EXPECT_GT(stats.cell_misses, 0u);
  EXPECT_EQ(stats.cell_hits, 0u);
  EXPECT_EQ(stats.mapper_restores, 0u);
  EXPECT_EQ(stats.mapper_builds, sweep_shard_count(corpus, spec));
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// The sweep takes no mapper snapshot: a cold cached sweep cold-builds
// one mapper per shard, counts each build, restores none and leaves the
// snapshot memo empty, for any thread count.
TEST(SweepCacheTest, CachedSweepStoresNoMapperSnapshots) {
  const auto corpus = workloads::paper_corpus();
  const std::vector<Fingerprint> app_fps = sweep_app_fingerprints(corpus);
  for (const int threads : {1, 4}) {
    SweepCache cache;
    const SweepSpec spec = small_spec(threads, &cache);
    sweep_design_space(corpus, spec);
    const SweepCacheStats stats = cache.stats();
    const std::size_t shards = sweep_shard_count(corpus, spec);
    EXPECT_EQ(stats.mapper_restores, 0u) << threads << " threads";
    EXPECT_EQ(stats.mapper_builds, shards) << threads << " threads";
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const SweepShardCoords coords = sweep_shard_coords(spec, shard);
      EXPECT_EQ(cache.find_mapper(shard_key(app_fps[coords.app],
                                            fingerprint(coords.platform))),
                nullptr)
          << threads << " threads, shard " << shard;
    }
  }
}

// Forcing lock degradation deterministically: a DIRECTORY at the lock
// path makes open(O_RDWR|O_CREAT) fail with EISDIR for every process —
// including root, which CAP_DAC_OVERRIDE lets sail past chmod-based
// tricks.
void force_degraded_lock(const std::string& cache_path) {
  const std::string lock = cache_path + ".lock";
  std::remove(lock.c_str());  // stale regular lock file from a prior run
  rmdir(lock.c_str());
  ASSERT_EQ(mkdir(lock.c_str(), 0755), 0)
      << "cannot pre-create lock directory";
}

TEST(SweepCacheTest, DegradedLockIsCountedAndSaveStillSucceeds) {
  const std::string path = temp_path("sweep_cache_degraded.jsonl");
  std::remove(path.c_str());
  rmdir((path + ".lock").c_str());
  force_degraded_lock(path);
  SweepCache cache;
  cache.store_cell(key_of(1, 1), cell_named("unlocked", 1));
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  EXPECT_EQ(cache.stats().lock_degraded, 1u);
  SweepCache loaded;
  ASSERT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_TRUE(loaded.find_cell(key_of(1, 1)).has_value());
  std::remove(path.c_str());
  rmdir((path + ".lock").c_str());
}

// The headline regression of this change: with the lock DEGRADED, two
// processes save the same path concurrently. The old fixed temp name
// (`path + ".tmp"`) let both write one temp file and rename interleaved
// garbage into place; unique per-process temp names make every rename
// atomic-whole-file. Contract under degradation: entries may be lost
// (documented), the file must NEVER be unloadable. 100 iterations per
// writer, every parse strict.
TEST(SweepCacheTest, DegradedLockConcurrentSaversNeverCorruptTheFile) {
  const std::string path = temp_path("sweep_cache_degraded_race.jsonl");
  std::remove(path.c_str());
  rmdir((path + ".lock").c_str());
  force_degraded_lock(path);
  constexpr int kWriters = 2;
  constexpr int kIterations = 100;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      for (int i = 0; i < kIterations; ++i) {
        SweepCache mine;
        mine.store_cell(
            key_of(static_cast<std::uint64_t>(w) + 1,
                   static_cast<std::uint64_t>(i)),
            cell_named("w" + std::to_string(w), i));
        std::string error;
        if (!mine.save(path, &error)) _exit(1);
      }
      _exit(0);
    }
    children.push_back(pid);
  }

  // Hammer loads while the writers race; rename atomicity means every
  // observed file state must parse. A not-yet-created file is the only
  // tolerated failure.
  int corrupt_loads = 0;
  int successful_loads = 0;
  while (true) {
    SweepCache reader;
    std::string error;
    if (reader.load(path, &error)) {
      ++successful_loads;
    } else if (error.find("cannot open") == std::string::npos) {
      ++corrupt_loads;
      ADD_FAILURE() << "corrupt intermediate cache: " << error;
    }
    int live = 0;
    for (pid_t& pid : children) {
      if (pid == -1) continue;
      int status = 0;
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer exited with status " << status;
        pid = -1;
      } else {
        ++live;
      }
    }
    if (live == 0) break;
  }
  EXPECT_EQ(corrupt_loads, 0);
  EXPECT_GT(successful_loads, 0);

  // The final file parses too, and holds at least each writer's last
  // iteration (its own save is the last thing each process did).
  SweepCache loaded;
  std::string error;
  ASSERT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_GT(loaded.stats().entries_loaded, 0u);
  std::remove(path.c_str());
  rmdir((path + ".lock").c_str());
}

// With the lock HELD, save sweeps leftover temp files of crashed
// writers (same directory, `<base>.tmp.` prefix) so they cannot pile
// up forever.
TEST(SweepCacheTest, SaveSweepsStaleTempFilesUnderTheLock) {
  const std::string path = temp_path("sweep_cache_stale_tmp.jsonl");
  std::remove(path.c_str());
  rmdir((path + ".lock").c_str());
  const std::string stale = path + ".tmp.99999.7";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "crashed writer leftovers\n";
  }
  ASSERT_TRUE(std::ifstream(stale).good());
  SweepCache cache;
  cache.store_cell(key_of(1, 1), cell_named("x", 1));
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  EXPECT_FALSE(std::ifstream(stale).good()) << "stale temp survived save";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

}  // namespace
}  // namespace amdrel::core
