// Transport fault tolerance (core/transport.h + serve_design_space):
// a dead worker — mid-stream EOF, SIGKILL, idle hang — must cost only a
// bounded retry of its unfinished shards, never a byte of the merged
// summary; protocol violations and exhausted retry budgets must fail
// loudly. Plus the TCP transport end-to-end over loopback, in-process.

#include "core/transport.h"

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/sweep_io.h"
#include "core/sweep_service.h"
#include "support/error.h"
#include "support/net.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kAnnealing};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = 1;
  return spec;
}

TEST(TransportTest, PartitionShardsWithMoreWorkersThanShards) {
  // Workers beyond the shard count get empty (but present) slots: the
  // coordinator simply has nothing to hand them.
  const auto split = partition_shards(2, 5);
  ASSERT_EQ(split.size(), 5u);
  EXPECT_EQ(split[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(split[1], (std::vector<std::size_t>{1}));
  EXPECT_TRUE(split[2].empty());
  EXPECT_TRUE(split[3].empty());
  EXPECT_TRUE(split[4].empty());
}

TEST(TransportTest, PartitionShardsWithZeroShards) {
  const auto split = partition_shards(0, 3);
  ASSERT_EQ(split.size(), 3u);
  for (const auto& slot : split) EXPECT_TRUE(slot.empty());
}

#ifndef _WIN32

// Shared scaffolding for the fork-transport fault tests: the expected
// single-process summary, one pre-rendered full wire stream per shard,
// and a per-shard spawn counter so a command function can misbehave on
// the first attempt only.
class ForkFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_ = workloads::paper_corpus();
    spec_ = small_spec();
    expected_json_ = sweep_to_json(sweep_design_space(corpus_, spec_));
    shards_ = sweep_shard_count(corpus_, spec_);
    // Paths carry the pid: ctest runs each TEST_F as its own process,
    // concurrently, and a shared name would let one test's TearDown
    // delete the streams another test's workers are still cat-ing.
    const std::string dir = testing::TempDir();
    const std::string tag = std::to_string(::getpid());
    for (std::size_t s = 0; s < shards_; ++s) {
      std::ostringstream os;
      run_sweep_worker(corpus_, spec_, {s}, os);
      streams_.push_back(os.str());
      const std::string path = dir + "transport_stream_" + tag + "_" +
                               std::to_string(s) + ".ndjson";
      std::ofstream(path, std::ios::binary) << streams_.back();
      paths_.push_back(path);
    }
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  /// One worker per shard whose first attempt at `broken_shard` runs
  /// `first_attempt` (a shell snippet; the stream file path is $0's
  /// argument, spliced in by the caller) and whose every other
  /// invocation faithfully cats the pre-rendered stream.
  ForkPipeTransport faulty_transport(std::size_t broken_shard,
                                     const std::string& first_attempt) {
    return ForkPipeTransport(
        [this, broken_shard, first_attempt](
            const std::vector<std::size_t>& assigned) {
          EXPECT_EQ(assigned.size(), 1u);
          const std::size_t shard = assigned[0];
          const int attempt = ++attempts_[shard];
          if (shard == broken_shard && attempt == 1) {
            return std::vector<std::string>{"/bin/sh", "-c", first_attempt};
          }
          return std::vector<std::string>{"/bin/cat", paths_[shard]};
        });
  }

  SweepSummary serve_with(Transport& transport, int idle_timeout_ms = 0) {
    ServeOptions options;
    options.workers = static_cast<int>(shards_);
    options.transport = &transport;
    options.idle_timeout_ms = idle_timeout_ms;
    return serve_design_space(corpus_, spec_, options);
  }

  std::vector<CorpusApp> corpus_;
  SweepSpec spec_;
  std::string expected_json_;
  std::size_t shards_ = 0;
  std::vector<std::string> streams_;
  std::vector<std::string> paths_;
  std::map<std::size_t, int> attempts_;
};

TEST_F(ForkFaultTest, RecoversFromMidStreamEof) {
  // First attempt truncates after the header and shard line — a clean
  // EOF mid-round, as if the worker host vanished between writes.
  ForkPipeTransport transport =
      faulty_transport(1, "head -n 2 '" + paths_[1] + "'");
  const SweepSummary summary = serve_with(transport);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(attempts_[1], 2);
}

TEST_F(ForkFaultTest, RecoversFromKilledWorker) {
  ForkPipeTransport transport = faulty_transport(2, "kill -9 $$");
  const SweepSummary summary = serve_with(transport);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(attempts_[2], 2);
}

/// True once `pid` no longer runs: gone (ESRCH), or a zombie waiting for
/// whichever ancestor inherited it to reap it.
bool process_gone(pid_t pid) {
  if (::kill(pid, 0) != 0 && errno == ESRCH) return true;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  const std::size_t paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size() &&
         line[paren + 2] == 'Z';
}

TEST_F(ForkFaultTest, RecoversFromIdleTimeout) {
  // The hung worker is a shell that spawned a child and writes nothing;
  // the 200ms idle timeout must declare it dead and retry its shard.
  // Killing only the shell would orphan the child, which keeps the
  // inherited pipe open for its whole 30s — the whole process group
  // must die with the shell.
  const std::string pid_path = testing::TempDir() + "transport_orphan_" +
                               std::to_string(::getpid()) + ".pid";
  ForkPipeTransport transport = faulty_transport(
      0, "sleep 30 & echo $! > '" + pid_path + "'; wait");
  const SweepSummary summary = serve_with(transport, /*idle_timeout_ms=*/200);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(attempts_[0], 2);

  long child = 0;
  ASSERT_TRUE(static_cast<bool>(std::ifstream(pid_path) >> child));
  std::remove(pid_path.c_str());
  ASSERT_GT(child, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (!process_gone(static_cast<pid_t>(child)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(process_gone(static_cast<pid_t>(child)))
      << "the hung worker's child " << child << " outlived it";
}

TEST_F(ForkFaultTest, FailsLoudlyWhenRetriesAreExhausted) {
  ForkPipeTransport transport([this](const std::vector<std::size_t>& a) {
    ++attempts_[a[0]];
    return std::vector<std::string>{"/bin/sh", "-c", "exit 3"};
  });
  ServeOptions options;
  options.workers = static_cast<int>(shards_);
  options.transport = &transport;
  options.max_shard_retries = 1;
  try {
    serve_design_space(corpus_, spec_, options);
    FAIL() << "expected Error after retry budget exhaustion";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos)
        << e.what();
  }
}

TEST_F(ForkFaultTest, ProtocolViolationIsNotRetried) {
  // The worker assigned shard 1 replays shard 0's stream: an unassigned
  // shard is a PROTOCOL violation — wrong bytes, not a dead peer — and
  // must fail the run immediately instead of burning retries.
  ForkPipeTransport transport(
      [this](const std::vector<std::size_t>& assigned) {
        ++attempts_[assigned[0]];
        return std::vector<std::string>{
            "/bin/cat", paths_[assigned[0] == 1 ? 0 : assigned[0]]};
      });
  ServeOptions options;
  options.workers = static_cast<int>(shards_);
  options.transport = &transport;
  EXPECT_THROW(serve_design_space(corpus_, spec_, options), Error);
  EXPECT_EQ(attempts_[1], 1);
}

TEST_F(ForkFaultTest, DuplicateShardReplayFailsLoudly) {
  // A stream delivering its shard twice (e.g. a confused retry wrapper
  // replaying a whole round) must be rejected, not double-merged.
  const std::string& stream = streams_[1];
  const std::size_t body_begin = stream.find('\n') + 1;  // after header
  const std::size_t done = stream.find("{\"kind\":\"worker_done\"");
  ASSERT_NE(done, std::string::npos);
  const std::string body = stream.substr(body_begin, done - body_begin);
  const std::string doctored =
      stream.substr(0, done) + body + stream.substr(done);
  const std::string path = testing::TempDir() + "transport_dup_" +
                           std::to_string(::getpid()) + ".ndjson";
  std::ofstream(path, std::ios::binary) << doctored;

  ForkPipeTransport transport(
      [this, &path](const std::vector<std::size_t>& assigned) {
        return std::vector<std::string>{
            "/bin/cat", assigned[0] == 1 ? path : paths_[assigned[0]]};
      });
  ServeOptions options;
  options.workers = static_cast<int>(shards_);
  options.transport = &transport;
  EXPECT_THROW(serve_design_space(corpus_, spec_, options), Error);
  std::remove(path.c_str());
}

TEST_F(ForkFaultTest, StreamsPartialShardsExactlyOnce) {
  ForkPipeTransport transport(
      [this](const std::vector<std::size_t>& assigned) {
        return std::vector<std::string>{"/bin/cat", paths_[assigned[0]]};
      });
  std::map<std::size_t, std::size_t> completed;  // shard -> used
  std::size_t streamed_cells = 0;
  ServeOptions options;
  options.workers = static_cast<int>(shards_);
  options.transport = &transport;
  options.on_shard_complete = [&](std::size_t shard, const SweepCell* cells,
                                  std::size_t used) {
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(completed.count(shard), 0u) << "shard streamed twice";
    completed[shard] = used;
    streamed_cells += used;
  };
  const SweepSummary summary = serve_design_space(corpus_, spec_, options);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(completed.size(), shards_);
  EXPECT_EQ(streamed_cells, summary.cells.size());
}

// ---------------------------------------------------------------------------
// TCP transport, end-to-end over loopback: in-process worker threads
// speaking the dynamic protocol through real sockets.

void run_tcp_worker(const std::vector<CorpusApp>& corpus,
                    const SweepSpec& spec, int port) {
  try {
    support::net::Socket conn =
        support::net::connect_tcp("127.0.0.1", port, /*timeout_ms=*/10000);
    support::net::FdIoStream stream(conn.fd());
    run_sweep_worker_connected(corpus, spec, stream, stream);
  } catch (const Error&) {
    // A worker the coordinator hung up on (e.g. after the sweep ended)
    // reports Error; the test asserts on the merged summary instead.
  }
}

TEST(TransportTest, TcpServeIsByteIdenticalToSingleProcess) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec();
  const std::string expected = sweep_to_json(sweep_design_space(corpus, spec));

  TcpTransport transport(support::net::listen_tcp("127.0.0.1", 0));
  const int port = transport.port();
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back(run_tcp_worker, std::cref(corpus), std::cref(spec),
                         port);
  }
  ServeOptions options;
  options.workers = 2;
  options.transport = &transport;
  const SweepSummary summary = serve_design_space(corpus, spec, options);
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(sweep_to_json(summary), expected);
}

TEST(TransportTest, TcpServeRetriesAfterDeadDialIn) {
  const auto corpus = workloads::paper_corpus();
  const SweepSpec spec = small_spec();
  const std::string expected = sweep_to_json(sweep_design_space(corpus, spec));

  TcpTransport transport(support::net::listen_tcp("127.0.0.1", 0));
  const int port = transport.port();
  {
    // A connection that dies before saying anything: accepted first
    // (FIFO backlog), it EOFs instantly and its whole round is retried
    // on the next dial-in.
    support::net::Socket dead =
        support::net::connect_tcp("127.0.0.1", port, /*timeout_ms=*/10000);
  }
  std::thread worker(run_tcp_worker, std::cref(corpus), std::cref(spec),
                     port);
  ServeOptions options;
  options.workers = 1;  // the dead dial-in takes the one slot first
  options.transport = &transport;
  const SweepSummary summary = serve_design_space(corpus, spec, options);
  worker.join();
  EXPECT_EQ(sweep_to_json(summary), expected);
}

#endif  // !_WIN32

}  // namespace
}  // namespace amdrel::core
