#include "core/sweep_service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>

#include <cerrno>
#include <poll.h>

#include "core/sweep_cache.h"
#include "core/wire.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::core {

using jsonl::JsonValue;

namespace {

/// How long serve waits for a worker to materialize when the run cannot
/// progress without one: at launch, and whenever no worker is live.
constexpr int kSpawnTimeoutMs = 60000;

/// Computes `assigned` shards through compute_sweep_shards and streams
/// them in assigned order, flushing each so a pipe or socket streams.
/// `emitted_shards` counts across rounds for the after_shard hook.
std::size_t emit_assigned_shards(const std::vector<CorpusApp>& corpus,
                                 const SweepSpec& spec,
                                 const std::vector<std::size_t>& assigned,
                                 std::ostream& os,
                                 const ShardEmitHook& after_shard,
                                 std::size_t& emitted_shards) {
  std::size_t total = 0;
  compute_sweep_shards(
      corpus, spec, assigned,
      [&](std::size_t job, std::vector<SweepCell>& cells, std::size_t used) {
        const std::size_t shard = assigned[job];
        wire::encode_shard_begin(os, {shard, used});
        for (std::size_t i = 0; i < used; ++i) {
          wire::encode_cell(os, shard, i, cells[i].report,
                            cells[i].moved_names);
        }
        os.flush();
        total += used;
        ++emitted_shards;
        if (after_shard) after_shard(emitted_shards);
      });
  return total;
}

wire::Header local_header(std::size_t shards) {
  wire::Header header;
  header.protocol = kSweepWireProtocolVersion;
  header.schema_version = kSweepCacheSchemaVersion;
  header.fingerprint_algorithm = kFingerprintAlgorithmVersion;
  header.shards = shards;
  return header;
}

}  // namespace

std::size_t run_sweep_worker(const std::vector<CorpusApp>& corpus,
                             const SweepSpec& spec,
                             const std::vector<std::size_t>& assigned,
                             std::ostream& os,
                             const ShardEmitHook& after_shard) {
  validate_sweep_inputs(corpus, spec);
  const std::size_t shards = sweep_shard_count(corpus, spec);
  std::vector<char> claimed(shards, 0);
  for (const std::size_t shard : assigned) {
    require(shard < shards, "run_sweep_worker: shard ", shard,
            " out of range (", shards, " shards)");
    require(!claimed[shard], "run_sweep_worker: duplicate shard ", shard);
    claimed[shard] = 1;
  }

  wire::encode_header(os, local_header(shards));
  std::size_t emitted_shards = 0;
  const std::size_t total =
      emit_assigned_shards(corpus, spec, assigned, os, after_shard,
                           emitted_shards);
  wire::encode_worker_done(os, {total});
  os.flush();
  require(os.good(), "run_sweep_worker: stream write failed");
  return total;
}

std::size_t run_sweep_worker_connected(const std::vector<CorpusApp>& corpus,
                                       const SweepSpec& spec, std::istream& in,
                                       std::ostream& out,
                                       const ShardEmitHook& after_shard) {
  validate_sweep_inputs(corpus, spec);
  const std::size_t shards = sweep_shard_count(corpus, spec);

  wire::encode_header(out, local_header(shards));
  out.flush();
  require(out.good(), "run_sweep_worker_connected: stream write failed");

  std::size_t total = 0;
  std::size_t emitted_shards = 0;
  std::vector<char> computed(shards, 0);
  std::string line;
  while (std::getline(in, line)) {
    JsonValue object;
    require(wire::parse_line(line, object),
            "connected worker: malformed coordinator line");
    switch (wire::line_kind(object)) {
      case wire::LineKind::kAssign: {
        wire::Assign assign;
        require(wire::decode_assign(object, assign),
                "connected worker: malformed assign line");
        for (const std::size_t s : assign.shards) {
          require(s < shards, "connected worker: shard ", s,
                  " out of range (", shards, " shards)");
          require(!computed[s],
                  "connected worker: shard ", s, " assigned twice");
          computed[s] = 1;
        }
        const std::size_t round =
            emit_assigned_shards(corpus, spec, assign.shards, out,
                                 after_shard, emitted_shards);
        total += round;
        out << wire::encode_round_done({round});
        out.flush();
        require(out.good(),
                "run_sweep_worker_connected: stream write failed");
        break;
      }
      case wire::LineKind::kShutdown: {
        wire::encode_worker_done(out, {total});
        out.flush();
        require(out.good(),
                "run_sweep_worker_connected: stream write failed");
        return total;
      }
      default:
        fail("connected worker: unexpected coordinator line");
    }
  }
  fail("connected worker: coordinator closed the connection without "
       "shutdown");
}

// ---------------------------------------------------------------------------
// WorkerStreamConsumer
// ---------------------------------------------------------------------------

WorkerStreamConsumer::WorkerStreamConsumer(
    const std::vector<CorpusApp>& corpus, const SweepSpec& spec,
    SweepSummary& summary, std::vector<std::size_t>& shard_used, bool dynamic)
    : spec_(spec), summary_(summary), shard_used_(shard_used),
      dynamic_(dynamic) {
  shards_ = sweep_shard_count(corpus, spec);
  cells_per_shard_ = sweep_cells_per_shard(spec);
  require(summary.cells.size() == shards_ * cells_per_shard_,
          "consume_worker_stream: summary slot layout mismatch");
  require(shard_used.size() == shards_,
          "consume_worker_stream: shard_used size mismatch");
  budgets_ = sweep_energy_budgets(spec);
  inner_ = budgets_.size() * spec.strategies.size() * spec.orderings.size();
}

void WorkerStreamConsumer::begin_round(
    const std::vector<std::size_t>& assigned) {
  require(!round_active_, "WorkerStreamConsumer: round already active");
  require(!done_, "WorkerStreamConsumer: connection already closed");
  expected_.clear();
  expected_.insert(assigned.begin(), assigned.end());
  require(expected_.size() == assigned.size(),
          "WorkerStreamConsumer: duplicate shard in assignment");
  round_completed_ = 0;
  round_cells_ = 0;
  in_shard_ = false;
  round_active_ = true;
}

WorkerStreamConsumer::Event WorkerStreamConsumer::feed(
    const std::string& line) {
  ++line_no_;
  require(!done_, "worker stream: data after worker_done");
  JsonValue object;
  require(wire::parse_line(line, object),
          "worker stream:", line_no_, ": not a JSON object");
  const wire::LineKind kind = wire::line_kind(object);
  if (!header_seen_) {
    require(kind == wire::LineKind::kHeader,
            "worker stream: missing wire_header line");
    return feed_header(object);
  }
  switch (kind) {
    case wire::LineKind::kHeader:
      fail("worker stream: repeated wire_header");
    case wire::LineKind::kShard:
      return feed_shard(object);
    case wire::LineKind::kCell:
      return feed_cell(object);
    case wire::LineKind::kWorkerDone: {
      wire::WorkerDone done;
      require(wire::decode_worker_done(object, done),
              "worker stream:", line_no_, ": malformed worker_done");
      require(done.cells == total_cells_,
              "worker stream: worker_done cell count mismatch");
      if (dynamic_) {
        // Only legal between rounds, as the response to shutdown.
        require(!round_active_, "worker stream: worker_done inside a round");
        done_ = true;
        return Event::kNone;
      }
      require(round_active_, "worker stream: worker_done outside a round");
      require(round_completed_ == expected_.size(),
              "worker stream: streamed ", round_completed_, " of ",
              expected_.size(), " assigned shards");
      round_active_ = false;
      done_ = true;
      return Event::kRoundComplete;
    }
    case wire::LineKind::kRoundDone: {
      require(dynamic_, "worker stream:", line_no_,
              ": unexpected kind \"round_done\"");
      require(round_active_ && !in_shard_,
              "worker stream:", line_no_, ": round_done out of place");
      wire::RoundDone done;
      require(wire::decode_round_done(object, done),
              "worker stream:", line_no_, ": malformed round_done");
      require(done.cells == round_cells_,
              "worker stream: round_done cell count mismatch");
      require(round_completed_ == expected_.size(),
              "worker stream: round streamed ", round_completed_, " of ",
              expected_.size(), " assigned shards");
      round_active_ = false;
      return Event::kRoundComplete;
    }
    default:
      fail(cat("worker stream:", line_no_, ": unexpected line"));
  }
}

WorkerStreamConsumer::Event WorkerStreamConsumer::feed_header(
    const JsonValue& object) {
  wire::Header header;
  require(wire::decode_header(object, header),
          "worker stream: missing wire_header line");
  require(header.protocol == kSweepWireProtocolVersion,
          "worker stream: wire protocol version mismatch");
  require(header.schema_version == kSweepCacheSchemaVersion,
          "worker stream: schema version mismatch");
  require(header.fingerprint_algorithm == kFingerprintAlgorithmVersion,
          "worker stream: fingerprint algorithm mismatch");
  require(header.shards == shards_, "worker stream: shard count mismatch");
  header_seen_ = true;
  return Event::kNone;
}

WorkerStreamConsumer::Event WorkerStreamConsumer::feed_shard(
    const JsonValue& object) {
  require(round_active_,
          "worker stream:", line_no_, ": shard outside a round");
  require(!in_shard_, "worker stream:", line_no_, ": expected cell ",
          cur_slot_, " of shard ", cur_shard_);
  wire::ShardBegin shard;
  require(wire::decode_shard_begin(object, shard),
          "worker stream:", line_no_, ": malformed shard line");
  require(expected_.count(shard.shard) != 0,
          "worker stream: shard ", shard.shard, " was not assigned");
  require(consumed_.insert(shard.shard).second,
          "worker stream: shard ", shard.shard, " streamed twice");
  require(shard.used <= cells_per_shard_ && shard.used % inner_ == 0,
          "worker stream: shard ", shard.shard, " claims ", shard.used,
          " cells (capacity ", cells_per_shard_, ")");
  if (shard.used == 0) return complete_shard(shard.shard, 0);
  in_shard_ = true;
  cur_shard_ = shard.shard;
  cur_coords_ = sweep_shard_coords(spec_, cur_shard_);
  cur_used_ = shard.used;
  cur_slot_ = 0;
  return Event::kNone;
}

WorkerStreamConsumer::Event WorkerStreamConsumer::feed_cell(
    const JsonValue& object) {
  require(round_active_ && in_shard_,
          "worker stream:", line_no_, ": unexpected cell line");
  wire::Cell cell;
  require(wire::decode_cell(object, cell),
          "worker stream:", line_no_, ": malformed cell payload");
  require(cell.shard == cur_shard_ && cell.slot == cur_slot_,
          "worker stream:", line_no_, ": expected cell ", cur_slot_,
          " of shard ", cur_shard_);

  // Coordinates derivable from the shard and slot indices are derived
  // HERE, by the slot layout the single-process sweep uses — the wire
  // cannot place a cell on a platform it was not computed for.
  SweepCell& dest = summary_.cells[cur_shard_ * cells_per_shard_ + cur_slot_];
  fill_slot_coords(spec_, budgets_, cur_coords_, cur_slot_, dest);
  dest.constraint = cell.payload.report.timing_constraint;
  dest.report = std::move(cell.payload.report);
  dest.moved_names = std::move(cell.payload.moved_names);

  ++cur_slot_;
  if (cur_slot_ == cur_used_) return complete_shard(cur_shard_, cur_used_);
  return Event::kNone;
}

WorkerStreamConsumer::Event WorkerStreamConsumer::complete_shard(
    std::size_t shard, std::size_t used) {
  in_shard_ = false;
  shard_used_[shard] = used;
  total_cells_ += used;
  round_cells_ += used;
  ++round_completed_;
  last_shard_ = shard;
  last_used_ = used;
  return Event::kShardComplete;
}

void WorkerStreamConsumer::finish_stream() const {
  require(header_seen_, "worker stream: empty (no wire_header)");
  if (in_shard_) {
    fail(cat("worker stream: truncated inside shard ", cur_shard_, " (",
             cur_slot_, " of ", cur_used_, " cells)"));
  }
  require(done_, "worker stream: truncated (no worker_done)");
}

std::vector<std::size_t> WorkerStreamConsumer::round_unfinished() const {
  std::vector<std::size_t> out;
  for (const std::size_t s : expected_) {
    if (consumed_.count(s) == 0 || (in_shard_ && s == cur_shard_)) {
      out.push_back(s);
    }
  }
  return out;
}

void consume_worker_stream(std::istream& in,
                           const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec,
                           const std::vector<std::size_t>& assigned,
                           SweepSummary& summary,
                           std::vector<std::size_t>& shard_used) {
  WorkerStreamConsumer consumer(corpus, spec, summary, shard_used,
                                /*dynamic=*/false);
  consumer.begin_round(assigned);
  std::string line;
  while (std::getline(in, line)) consumer.feed(line);
  consumer.finish_stream();
}

// ---------------------------------------------------------------------------
// serve_design_space: the fault-tolerant coordinator event loop
// ---------------------------------------------------------------------------

SweepSummary serve_design_space(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec,
                                const ServeOptions& options) {
  using Clock = std::chrono::steady_clock;
  using Event = WorkerStreamConsumer::Event;

  validate_sweep_inputs(corpus, spec);
  require(options.transport != nullptr,
          "serve_design_space: no transport configured");
  const std::size_t shards = sweep_shard_count(corpus, spec);
  const std::size_t cells_per_shard = sweep_cells_per_shard(spec);
  const std::size_t width =
      static_cast<std::size_t>(std::max(1, options.workers));

  SweepSummary summary;
  summary.apps.reserve(corpus.size());
  for (const CorpusApp& app : corpus) summary.apps.push_back(app.name);
  summary.cells.resize(shards * cells_per_shard);
  std::vector<std::size_t> shard_used(shards, 0);

  // One live worker connection: its channel, the incremental stream
  // consumer carrying per-connection protocol state across rounds, and
  // health bookkeeping.
  struct Conn {
    std::unique_ptr<WorkerChannel> channel;
    WorkerStreamConsumer consumer;
    Clock::time_point last_activity;
    bool busy = false;
    /// A fresh worker's first assign line, held back until its
    /// wire_header arrives: a worker still building its corpus is not
    /// reading yet, and a large batch would overrun the socket buffer.
    std::string first_assign;

    Conn(std::unique_ptr<WorkerChannel> ch,
         const std::vector<CorpusApp>& corpus, const SweepSpec& spec,
         SweepSummary& summary, std::vector<std::size_t>& shard_used)
        : channel(std::move(ch)),
          consumer(corpus, spec, summary, shard_used, /*dynamic=*/true),
          last_activity(Clock::now()) {}
  };
  std::vector<std::unique_ptr<Conn>> conns;

  std::vector<int> attempts(shards, 0);
  std::vector<char> completed(shards, 0);
  std::size_t completed_count = 0;
  // The one place a shard waits for a worker: at the start, and again
  // after a failed attempt. Every unfinished shard is either here or in
  // the round of a live worker.
  std::deque<std::size_t> queue;
  for (std::size_t s = 0; s < shards; ++s) queue.push_back(s);

  auto note_complete = [&](Conn& conn) {
    const std::size_t s = conn.consumer.last_shard();
    require(!completed[s],
            "serve_design_space: shard ", s, " completed twice");
    completed[s] = 1;
    ++completed_count;
    if (options.on_shard_complete) {
      options.on_shard_complete(s, summary.cells.data() + s * cells_per_shard,
                                conn.consumer.last_used());
    }
  };

  // Charges one failed attempt to every unfinished shard of a dead
  // round and queues them for the survivors — or gives up loudly once a
  // shard exhausts its budget.
  auto charge_and_queue = [&](const std::vector<std::size_t>& unfinished,
                              const std::string& who,
                              const std::string& why) {
    if (unfinished.empty()) return;
    for (const std::size_t s : unfinished) {
      require(attempts[s] <= options.max_shard_retries,
              "serve_design_space: ", who, " ", why, "; shard ", s,
              " already failed ", attempts[s],
              " attempt(s); giving up");
    }
    std::cerr << "amdrelc serve: " << who << " " << why << "; retrying "
              << unfinished.size() << " shard(s)\n";
    queue.insert(queue.end(), unfinished.begin(), unfinished.end());
  };

  // The one place a batch is handed to a worker. Guided self-scheduling
  // (Polychronopoulos & Kuck, 1987): the first ceil(queued / width)
  // shards, so one worker gets the whole sweep in one assign and N
  // workers get shrinking batches whose tail an idle worker steals. A
  // fresh worker's assign waits for its header. False, with the batch
  // still queued, if the assign cannot be written.
  auto assign = [&](Conn& conn) -> bool {
    const auto end = queue.begin() + static_cast<std::ptrdiff_t>(
                                         (queue.size() + width - 1) / width);
    const std::vector<std::size_t> batch(queue.begin(), end);
    std::size_t retry = 0;
    for (const std::size_t s : batch) {
      retry = std::max(retry, static_cast<std::size_t>(attempts[s]));
    }
    const std::string line = wire::encode_assign({batch, retry});
    if (!conn.consumer.header_seen()) {
      conn.first_assign = line;
    } else if (!conn.channel->write_line(line)) {
      return false;
    }
    queue.erase(queue.begin(), end);
    conn.consumer.begin_round(batch);
    conn.busy = true;
    conn.last_activity = Clock::now();
    for (const std::size_t s : batch) ++attempts[s];
    return true;
  };

  // Opens up to `width` fresh workers while shards are queued, each
  // bound to its batch. Runs at the start and again only when no worker
  // is live, so survivors always take a dead worker's shards first.
  auto launch = [&] {
    std::size_t tried = 0;
    std::size_t started = 0;
    for (; tried < width && !queue.empty(); ++tried) {
      std::unique_ptr<WorkerChannel> channel =
          options.transport->open_worker(kSpawnTimeoutMs);
      if (!channel) continue;
      conns.push_back(std::make_unique<Conn>(std::move(channel), corpus, spec,
                                             summary, shard_used));
      assign(*conns.back());
      ++started;
    }
    require(started > 0, "serve_design_space: no worker available for ",
            queue.size(), " unfinished shard(s)");
    if (started < tried) {
      std::cerr << "amdrelc serve: " << started << " of " << width
                << " worker(s) started\n";
    }
  };

  auto fail_conn = [&](Conn& conn, const std::string& why) {
    charge_and_queue(conn.consumer.round_unfinished(),
                     conn.channel->describe(), why);
  };

  // Feeds whatever `conn` has to say to its consumer, then sends a
  // held-back first assign once the header is in. False once the worker
  // is gone: its stream closed, or it stopped taking our writes.
  auto drain_conn = [&](Conn& conn) -> bool {
    std::vector<std::string> lines;
    const ChannelStatus status = conn.channel->read_lines(lines);
    if (!lines.empty()) conn.last_activity = Clock::now();
    for (const std::string& line : lines) {
      const Event event = conn.consumer.feed(line);
      if (event == Event::kShardComplete) note_complete(conn);
      if (event == Event::kRoundComplete) conn.busy = false;
    }
    if (!conn.first_assign.empty() && conn.consumer.header_seen()) {
      if (!conn.channel->write_line(conn.first_assign)) return false;
      conn.first_assign.clear();
    }
    return status == ChannelStatus::kOk;
  };

  while (completed_count < shards) {
    if (conns.empty()) launch();
    // Every idle live worker takes the next batch. One whose assign
    // cannot be written is dropped; nothing was handed to it.
    for (auto it = conns.begin(); it != conns.end();) {
      if (!(*it)->busy && !queue.empty() && !assign(**it)) {
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    if (conns.empty()) continue;

    std::vector<pollfd> fds;
    fds.reserve(conns.size());
    for (const std::unique_ptr<Conn>& conn : conns) {
      fds.push_back({conn->channel->poll_fd(), POLLIN, 0});
    }
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (ready < 0 && errno == EINTR) continue;
    require(ready >= 0, "serve_design_space: poll failed");

    std::vector<std::unique_ptr<Conn>> kept;
    kept.reserve(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = *conns[i];
      const bool readable =
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if (readable && !drain_conn(conn)) {
        // Gone mid-round: its unfinished shards are queued again. Gone
        // between rounds: nothing is lost. Either way ~Conn reaps it.
        if (conn.busy) fail_conn(conn, "disconnected mid-round");
        continue;
      }
      if (conn.busy && options.idle_timeout_ms > 0 &&
          Clock::now() - conn.last_activity >
              std::chrono::milliseconds(options.idle_timeout_ms)) {
        fail_conn(conn, "idle timeout");
        continue;  // drop: ~Conn SIGKILLs a forked worker / drops a socket
      }
      kept.push_back(std::move(conns[i]));
    }
    conns.swap(kept);
  }

  // Every shard landed. Wind every worker down with the shutdown
  // handshake: finish its last round (the round_done may still be
  // unread), send shutdown, read worker_done, then finish() — which for
  // a forked worker waits for its exit, so its --cache save is on disk
  // before serve returns. All shutdowns go out before the first wait,
  // so the workers' saves overlap. A worker that misses a step or exits
  // nonzero fails the run.
  const Clock::time_point goodbye_deadline =
      Clock::now() + std::chrono::seconds(10);
  auto drain_until = [&](Conn& conn, const auto& done) {
    while (!done() && Clock::now() < goodbye_deadline) {
      pollfd pfd{conn.channel->poll_fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno == EINTR) continue;
      require(ready >= 0, "serve_design_space: poll failed");
      if (ready > 0 && !drain_conn(conn)) break;
    }
  };
  auto handshake_error = [](const Conn& conn) {
    return cat("serve_design_space: ", conn.channel->describe(),
               " did not complete the shutdown handshake");
  };
  for (const std::unique_ptr<Conn>& conn : conns) {
    drain_until(*conn, [&] { return !conn->busy; });
    require(!conn->busy && conn->channel->write_line(wire::encode_shutdown()),
            handshake_error(*conn));
  }
  for (const std::unique_ptr<Conn>& conn : conns) {
    drain_until(*conn, [&] { return conn->consumer.connection_done(); });
    require(conn->consumer.connection_done(), handshake_error(*conn));
    require(conn->channel->finish(),
            "serve_design_space: ", conn->channel->describe(),
            " exited uncleanly");
  }
  conns.clear();

  finalize_sweep_summary(summary, shard_used, cells_per_shard);
  return summary;
}

}  // namespace amdrel::core
