// Sweep service (core/sweep_service.h): the coordinator/worker split of
// sweep_design_space. The load-bearing property is byte-identity — a
// worker stream consumed back through the coordinator must rebuild
// EXACTLY the summary a single-process sweep produces, at any worker
// split, cold or cache-warm — plus the strict protocol validation that
// turns any malformed stream into a loud Error instead of a wrong
// artifact.

#include "core/sweep_service.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/transport.h"
#include "fake_worker.h"
#include "support/error.h"
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

// Runs the full worker->wire->coordinator loop in-process, one one-shot
// stream per worker over a round-robin split (shard s to worker
// s % workers), and returns the finalized summary: what
// serve_design_space does minus fork/pipe plumbing.
SweepSummary roundtrip(const std::vector<CorpusApp>& corpus,
                       const SweepSpec& spec, int workers) {
  const std::size_t shards = sweep_shard_count(corpus, spec);
  const std::size_t cells_per_shard = sweep_cells_per_shard(spec);
  SweepSummary summary;
  for (const CorpusApp& app : corpus) summary.apps.push_back(app.name);
  summary.cells.resize(shards * cells_per_shard);
  std::vector<std::size_t> shard_used(shards, 0);
  const auto stride = static_cast<std::size_t>(workers);
  for (std::size_t first = 0; first < std::min(stride, shards); ++first) {
    std::vector<std::size_t> assigned;
    for (std::size_t s = first; s < shards; s += stride) assigned.push_back(s);
    std::stringstream wire;
    run_sweep_worker(corpus, spec, assigned, wire);
    consume_worker_stream(wire, corpus, spec, assigned, summary, shard_used);
  }
  finalize_sweep_summary(summary, shard_used, cells_per_shard);
  return summary;
}

TEST(SweepServiceTest, WorkerStreamRoundTripIsByteIdenticalToSweep) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec(2, nullptr);
  const auto reference = sweep_design_space(corpus, spec);
  const std::string json = sweep_to_json(reference);
  const std::string csv = sweep_to_csv(reference);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int workers : {1, 2, hw}) {
    const auto merged = roundtrip(corpus, spec, workers);
    EXPECT_EQ(sweep_to_json(merged), json) << workers << " workers";
    EXPECT_EQ(sweep_to_csv(merged), csv) << workers << " workers";
  }
}

TEST(SweepServiceTest, WarmCacheRoundTripStaysByteIdentical) {
  const auto corpus = workloads::paper_corpus();
  const std::string json =
      sweep_to_json(sweep_design_space(corpus, small_spec(2, nullptr)));
  SweepCache cache;
  // Cold distributed run populates the cache; warm rerun must hit every
  // cell and still reproduce the same bytes.
  EXPECT_EQ(sweep_to_json(roundtrip(corpus, small_spec(2, &cache), 2)), json);
  const SweepCacheStats before = cache.stats();
  EXPECT_EQ(sweep_to_json(roundtrip(corpus, small_spec(2, &cache), 3)), json);
  EXPECT_EQ(cache.stats().cell_misses, before.cell_misses);
  EXPECT_GT(cache.stats().cell_hits, before.cell_hits);
}

TEST(SweepServiceTest, WorkerRejectsBadShardAssignments) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec(1, nullptr);
  const std::size_t shards = sweep_shard_count(corpus, spec);
  std::ostringstream sink;
  EXPECT_THROW(run_sweep_worker(corpus, spec, {shards}, sink), Error);
  EXPECT_THROW(run_sweep_worker(corpus, spec, {0, 0}, sink), Error);
}

// Shared fixture for the protocol-violation cases: one worker's valid
// stream, then a mutation, then the consumer must throw.
class StreamRejectionTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_ = workloads::paper_corpus();
    spec_ = small_spec(1, nullptr);
    assigned_ = {0, 1};
    std::ostringstream os;
    run_sweep_worker(corpus_, spec_, assigned_, os);
    wire_ = os.str();
  }

  void expect_rejected(const std::string& wire, const char* tag) {
    const std::size_t shards = sweep_shard_count(corpus_, spec_);
    SweepSummary summary;
    for (const CorpusApp& app : corpus_) summary.apps.push_back(app.name);
    summary.cells.resize(shards * sweep_cells_per_shard(spec_));
    std::vector<std::size_t> shard_used(shards, 0);
    std::istringstream in(wire);
    EXPECT_THROW(consume_worker_stream(in, corpus_, spec_, assigned_, summary,
                                       shard_used),
                 Error)
        << tag;
  }

  std::vector<CorpusApp> corpus_;
  SweepSpec spec_;
  std::vector<std::size_t> assigned_;
  std::string wire_;
};

TEST_F(StreamRejectionTest, RejectsProtocolVersionMismatch) {
  std::string wire = wire_;
  const std::string current =
      "\"protocol\":" + std::to_string(core::kSweepWireProtocolVersion);
  const auto pos = wire.find(current);
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, current.size(), "\"protocol\":9999");
  expect_rejected(wire, "protocol_version");
}

// A version or a cell field past its int range is a protocol error, not
// a value that wraps to a valid one (2^32 + v read as v).
TEST_F(StreamRejectionTest, RejectsIntegersThatWrapIntoRange) {
  auto wrapped = [&](const std::string& field, std::int64_t value) {
    std::string wire = wire_;
    const std::string from = "\"" + field + "\":" + std::to_string(value);
    const auto pos = wire.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) {
      wire.replace(pos, from.size(),
                   "\"" + field + "\":" +
                       std::to_string((std::int64_t{1} << 32) + value));
    }
    return wire;
  };
  expect_rejected(wrapped("protocol", core::kSweepWireProtocolVersion),
                  "protocol_wrap");
  expect_rejected(wrapped("schema_version", core::kSweepCacheSchemaVersion),
                  "schema_wrap");
  expect_rejected(
      wrapped("fingerprint_algorithm", core::kFingerprintAlgorithmVersion),
      "algorithm_wrap");

  // The first integer right after `prefix` (the first id of a non-empty
  // moved list, the first iteration count) wrapped the same way.
  auto wrapped_after = [&](const std::string& prefix) {
    std::string wire = wire_;
    std::size_t begin = 0;
    for (std::size_t at = wire.find(prefix); at != std::string::npos;
         at = wire.find(prefix, at + 1)) {
      begin = at + prefix.size();
      if (begin < wire.size() && wire[begin] >= '0' && wire[begin] <= '9') break;
      begin = 0;
    }
    EXPECT_NE(begin, 0u) << "no integer after " << prefix;
    if (begin == 0) return wire;
    const auto end = wire.find_first_not_of("0123456789", begin);
    const std::int64_t value = std::stoll(wire.substr(begin, end - begin));
    wire.replace(begin, end - begin,
                 std::to_string((std::int64_t{1} << 32) + value));
    return wire;
  };
  expect_rejected(wrapped_after("\"moved\":["), "moved_wrap");
  expect_rejected(wrapped_after("\"engine_iterations\":"), "iterations_wrap");
}

TEST_F(StreamRejectionTest, RejectsTruncatedStream) {
  // Cut mid-way: the worker_done trailer never arrives.
  expect_rejected(wire_.substr(0, wire_.size() / 2), "truncated");
  // Losing only the trailer line must also be fatal.
  const auto done = wire_.rfind("{\"kind\":\"worker_done\"");
  ASSERT_NE(done, std::string::npos);
  expect_rejected(wire_.substr(0, done), "missing_done");
}

TEST_F(StreamRejectionTest, RejectsUnassignedShard) {
  // A stream claiming shard 2 when only {0, 1} were assigned.
  std::string wire = wire_;
  const std::string from = "{\"kind\":\"shard\",\"shard\":1";
  const auto pos = wire.find(from);
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, from.size(), "{\"kind\":\"shard\",\"shard\":2");
  expect_rejected(wire, "unassigned_shard");
}

TEST_F(StreamRejectionTest, RejectsGarbageLine) {
  const auto first_line_end = wire_.find('\n');
  ASSERT_NE(first_line_end, std::string::npos);
  std::string wire = wire_;
  wire.insert(first_line_end + 1, "not json\n");
  expect_rejected(wire, "garbage");
}

TEST_F(StreamRejectionTest, RejectsEmptyStream) {
  expect_rejected("", "empty");
}

// End-to-end through real fork/exec: serve_design_space with /bin/sh
// workers that answer assigns with pre-rendered valid shard bodies must
// reproduce the sweep, and a worker that exits nonzero must fail the
// run.
TEST(SweepServiceTest, ServeMergesCommandWorkers) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec(1, nullptr);
  const std::string json = sweep_to_json(sweep_design_space(corpus, spec));

  const FakeWorker fake(corpus, spec, "sweep_service_fake");
  ForkPipeTransport transport(fake.command());
  ServeOptions options;
  options.workers = static_cast<int>(sweep_shard_count(corpus, spec));
  options.transport = &transport;
  const auto summary = serve_design_space(corpus, spec, options);
  EXPECT_EQ(sweep_to_json(summary), json);
  EXPECT_EQ(fake.spawns(), options.workers);  // one shard per worker
}

TEST(SweepServiceTest, ServeFailsWhenAWorkerExitsNonzero) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec(1, nullptr);
  ForkPipeTransport transport({"/bin/sh", "-c", "exit 3"});
  ServeOptions options;
  options.workers = 2;
  options.transport = &transport;
  EXPECT_THROW(serve_design_space(corpus, spec, options), Error);
}

}  // namespace
}  // namespace amdrel::core
