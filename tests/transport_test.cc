// Transport fault tolerance (core/transport.h + serve_design_space):
// a dead worker — mid-stream EOF, SIGKILL, idle hang — must cost only a
// bounded retry of its unfinished shards, never a byte of the merged
// summary, and its shards go back on the one shard queue for the
// survivors before anything respawns; protocol violations, exhausted
// retry budgets and a worker that misses the shutdown handshake or
// exits nonzero must fail loudly. The queue's batch rule is pinned too:
// one worker gets the whole sweep in one assign, and an idle worker
// steals the queued tail. Plus the TCP transport end-to-end over
// loopback, in-process.

#include "core/transport.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
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
#include "fake_worker.h"
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

// Shared scaffolding for the fork-transport fault tests: the expected
// single-process summary and a scripted fake worker (tests/fake_worker.h)
// whose hooks inject one fault each.
class ForkFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_ = workloads::paper_corpus();
    spec_ = small_spec();
    expected_json_ = sweep_to_json(sweep_design_space(corpus_, spec_));
    shards_ = sweep_shard_count(corpus_, spec_);
    fake_ = std::make_unique<FakeWorker>(corpus_, spec_, "transport_fake");
  }

  /// Serves the sweep on fake workers running `hooks`, one shard per
  /// worker unless `workers` says otherwise.
  SweepSummary serve_with(const FakeWorkerHooks& hooks,
                          int idle_timeout_ms = 0, int workers = 0) {
    ForkPipeTransport transport(fake_->command(hooks));
    ServeOptions options;
    options.workers = workers > 0 ? workers : static_cast<int>(shards_);
    options.transport = &transport;
    options.idle_timeout_ms = idle_timeout_ms;
    return serve_design_space(corpus_, spec_, options);
  }

  /// Asserts that serving on `hooks` fails with an Error naming `what`.
  void expect_serve_error(const FakeWorkerHooks& hooks,
                          const std::string& what) {
    try {
      serve_with(hooks);
      FAIL() << "expected Error containing: " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }

  std::vector<CorpusApp> corpus_;
  SweepSpec spec_;
  std::string expected_json_;
  std::size_t shards_ = 0;
  std::unique_ptr<FakeWorker> fake_;
};

TEST_F(ForkFaultTest, RecoversFromMidStreamEof) {
  // First attempt at shard 1 writes only its shard line and exits 0 — a
  // clean EOF mid-round, as if the worker host vanished between writes.
  FakeWorkerHooks hooks;
  hooks.before_shard =
      "if [ \"$s\" = 1 ] && first_try; then "
      "head -n 1 \"$d/body_1\"; exit 0; fi";
  const SweepSummary summary = serve_with(hooks);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->assignments(1), 2);
}

TEST_F(ForkFaultTest, RecoversFromKilledWorker) {
  FakeWorkerHooks hooks;
  hooks.before_shard = "if [ \"$s\" = 2 ] && first_try; then kill -9 $$; fi";
  const SweepSummary summary = serve_with(hooks);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->assignments(2), 2);
}

TEST_F(ForkFaultTest, KilledWorkerShardsFinishOnIdleSurvivor) {
  // Two workers. The one holding shard 0 dies on it, but only once the
  // other has finished a round: the dead worker's unfinished shards go
  // back on the queue and the survivor takes them, with no respawn.
  FakeWorkerHooks hooks;
  hooks.before_shard =
      "if [ \"$s\" = 0 ] && first_try; then "
      "while [ ! -e \"$d/idle\" ]; do sleep 0.01; done; kill -9 $$; fi";
  hooks.after_round = "touch \"$d/idle\"";
  const SweepSummary summary = serve_with(hooks, 0, /*workers=*/2);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->spawns(), 2);
  EXPECT_EQ(fake_->assignments(0), 2);
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
  // inherited socket open for its whole 30s — the whole process group
  // must die with the shell.
  const std::string pid_path = fake_->path("orphan.pid");
  FakeWorkerHooks hooks;
  hooks.before_shard = "if [ \"$s\" = 0 ] && first_try; then "
                       "sleep 30 & echo $! > '" + pid_path + "'; wait; fi";
  const SweepSummary summary = serve_with(hooks, /*idle_timeout_ms=*/200);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->assignments(0), 2);

  long child = 0;
  ASSERT_TRUE(static_cast<bool>(std::ifstream(pid_path) >> child));
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
  ForkPipeTransport transport({"/bin/sh", "-c", "exit 3"});
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
  // The worker assigned shard 1 replays shard 0's body: an unassigned
  // shard is a PROTOCOL violation — wrong bytes, not a dead peer — and
  // must fail the run immediately instead of burning retries.
  FakeWorkerHooks hooks;
  hooks.before_shard = "if [ \"$s\" = 1 ]; then s=0; fi";
  expect_serve_error(hooks, "was not assigned");
  EXPECT_EQ(fake_->assignments(1), 1);
}

TEST_F(ForkFaultTest, DuplicateShardReplayFailsLoudly) {
  // A worker delivering its shard twice (e.g. a confused retry wrapper
  // replaying a whole round) must be rejected, not double-merged.
  FakeWorkerHooks hooks;
  hooks.before_shard = "if [ \"$s\" = 1 ]; then cat \"$d/body_1\"; fi";
  expect_serve_error(hooks, "streamed twice");
}

TEST_F(ForkFaultTest, ShardReplayedAfterItsRoundEndsFailsLoudly) {
  // A round ends when its last shard lands, so a replay of that shard
  // arrives between rounds. It is still a repeat, and says so.
  FakeWorkerHooks hooks;
  hooks.after_round = "cat \"$d/body_$s\"";
  expect_serve_error(hooks, "streamed twice");
}

TEST_F(ForkFaultTest, MissedShutdownHandshakeFailsServe) {
  // Every shard arrives, but the workers exit 0 on shutdown without
  // the worker_done trailer.
  FakeWorkerHooks hooks;
  hooks.on_shutdown = "exit 0";
  expect_serve_error(hooks, "did not complete the shutdown handshake");
}

TEST_F(ForkFaultTest, NonzeroExitAfterHandshakeFailsServe) {
  FakeWorkerHooks hooks;
  hooks.on_shutdown = "done_line; exit 1";
  expect_serve_error(hooks, "exited uncleanly");
}

TEST_F(ForkFaultTest, ServeWaitsForForkedWorkersToExit) {
  // A worker's --cache save runs after worker_done; serve must not
  // return before the worker process has exited.
  FakeWorkerHooks hooks;
  hooks.on_shutdown =
      "done_line; sleep 0.2; echo exited >> \"$d/exited\"; exit 0";
  serve_with(hooks, 0, /*workers=*/2);
  std::ifstream exited(fake_->path("exited"));
  int lines = 0;
  for (std::string line; std::getline(exited, line);) ++lines;
  EXPECT_EQ(lines, 2);
}

TEST_F(ForkFaultTest, FirstAssignWaitsForTheHeader) {
  // A worker still building its corpus is not reading; an assign larger
  // than the socket buffer, written then, would time out and be lost.
  // So nothing may arrive before the worker's header: these workers
  // fail if a byte is waiting for them before they print it.
  FakeWorkerHooks hooks;
  hooks.before_header =
      "sleep 0.2; if timeout 0.2 head -c 1 > /dev/null; then exit 3; fi";
  const SweepSummary summary = serve_with(hooks);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->spawns(), static_cast<int>(shards_));
}

TEST_F(ForkFaultTest, StreamsPartialShardsExactlyOnce) {
  for (const int workers : {1, 2, 3, static_cast<int>(shards_)}) {
    ForkPipeTransport transport(fake_->command());
    std::map<std::size_t, std::size_t> completed;  // shard -> used
    std::size_t streamed_cells = 0;
    ServeOptions options;
    options.workers = workers;
    options.transport = &transport;
    options.on_shard_complete = [&](std::size_t shard,
                                    const SweepCell* cells,
                                    std::size_t used) {
      ASSERT_NE(cells, nullptr);
      EXPECT_EQ(completed.count(shard), 0u) << "shard streamed twice";
      completed[shard] = used;
      streamed_cells += used;
    };
    const SweepSummary summary = serve_design_space(corpus_, spec_, options);
    EXPECT_EQ(sweep_to_json(summary), expected_json_) << workers;
    EXPECT_EQ(completed.size(), shards_) << workers;
    EXPECT_EQ(streamed_cells, summary.cells.size()) << workers;
  }
}

TEST_F(ForkFaultTest, OneWorkerTakesTheWholeSweepInOneAssign) {
  ASSERT_EQ(shards_, 4u);
  const SweepSummary summary = serve_with({}, 0, /*workers=*/1);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->rounds(), (std::vector<std::string>{"0,1,2,3"}));
}

TEST_F(ForkFaultTest, IdleWorkerStealsTheQueuedTail) {
  // Two workers over four shards: the first takes ceil(4/2) = {0,1},
  // the second ceil(2/2) = {2}, and shard 3 waits in the queue. The
  // worker holding shard 0 stalls (bounded) until shard 3 is served, so
  // shard 3 can only come from the worker that went idle after shard 2.
  ASSERT_EQ(shards_, 4u);
  FakeWorkerHooks hooks;
  hooks.before_shard =
      "if [ \"$s\" = 0 ]; then i=0; "
      "while ! grep -q '^3 ' \"$d/served\" 2>/dev/null && [ $i -lt 500 ]; "
      "do sleep 0.01; i=$((i + 1)); done; fi";
  const SweepSummary summary = serve_with(hooks, 0, /*workers=*/2);
  EXPECT_EQ(sweep_to_json(summary), expected_json_);
  EXPECT_EQ(fake_->spawns(), 2);
  const std::vector<std::string> served_2 = fake_->servers(2);
  ASSERT_EQ(served_2.size(), 1u);
  EXPECT_EQ(fake_->servers(3), served_2);
}

// ---------------------------------------------------------------------------
// TCP transport, end-to-end over loopback: in-process worker threads
// speaking the wire protocol through real sockets.

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

}  // namespace
}  // namespace amdrel::core
