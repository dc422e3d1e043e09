#include "core/sweep_service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <istream>
#include <memory>
#include <ostream>
#include <iterator>
#include <set>
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

/// Incremental validator/merger of one worker connection's stream, fed
/// one wire line at a time: serve's event loop keeps one per live
/// connection, and consume_worker_stream runs one over a whole stream.
/// A round is active while some shard of the last begin_round has not
/// landed, and it ends when the last one lands. Cell coordinates that
/// are derivable from the shard/slot index alone (app, platform axes,
/// platform cost, strategy, ordering, energy budget) are re-derived
/// locally — the wire carries only the computed payload — so a byte on
/// the wire can never move a cell to the wrong coordinate. Every
/// protocol violation throws Error.
class StreamConsumer {
 public:
  StreamConsumer(std::size_t shards, const SweepSpec& spec,
                 SweepSummary& summary, std::vector<std::size_t>& shard_used)
      : spec_(spec), summary_(summary), shard_used_(shard_used),
        shards_(shards), cells_per_shard_(sweep_cells_per_shard(spec)),
        budgets_(sweep_energy_budgets(spec)),
        inner_(budgets_.size() * spec.strategies.size() *
               spec.orderings.size()) {
    require(summary.cells.size() == shards_ * cells_per_shard_,
            "consume_worker_stream: summary slot layout mismatch");
    require(shard_used.size() == shards_,
            "consume_worker_stream: shard_used size mismatch");
  }

  /// Starts a round over `assigned` shards; an empty one is complete at
  /// once. The first round also expects the wire_header before any data
  /// line.
  void begin_round(const std::vector<std::size_t>& assigned) {
    require(!round_active(), "worker stream: round already active");
    require(!done_, "worker stream: connection already closed");
    pending_.insert(assigned.begin(), assigned.end());
    require(pending_.size() == assigned.size(),
            "worker stream: duplicate shard in assignment");
  }

  /// Feeds one line (no trailing newline). True when it completed a
  /// shard, whose index and fill count last_shard()/last_used() give.
  /// Throws Error on protocol violations.
  bool feed(const std::string& line) {
    ++line_no_;
    require(!done_, "worker stream: data after worker_done");
    if (in_shard_) {
      // The fast path writes straight into the expected slot. A line it
      // declines, or one for another slot, takes the tree path below,
      // which rewrites the slot or throws.
      SweepCell& dest = cur_dest();
      std::size_t shard = 0;
      std::size_t slot = 0;
      if (wire::decode_cell_line(line, shard, slot, dest.report,
                                 dest.moved_names) &&
          shard == cur_shard_ && slot == cur_slot_) {
        return land_cell(dest);
      }
    }
    JsonValue object;
    require(wire::parse_line(line, object),
            "worker stream:", line_no_, ": not a JSON object");
    const wire::LineKind kind = wire::line_kind(object);
    if (!header_seen_) {
      require(kind == wire::LineKind::kHeader,
              "worker stream: missing wire_header line");
      feed_header(object);
      return false;
    }
    switch (kind) {
      case wire::LineKind::kHeader:
        fail("worker stream: repeated wire_header");
      case wire::LineKind::kShard:
        return feed_shard(object);
      case wire::LineKind::kCell:
        return feed_cell(object);
      case wire::LineKind::kWorkerDone: {
        // Only legal between rounds, and it closes the connection.
        wire::WorkerDone done;
        require(wire::decode_worker_done(object, done),
                "worker stream:", line_no_, ": malformed worker_done");
        require(!round_active(), "worker stream: worker_done inside a round");
        require(done.cells == total_cells_,
                "worker stream: worker_done cell count mismatch");
        done_ = true;
        return false;
      }
      default:
        fail(cat("worker stream:", line_no_, ": unexpected line"));
    }
  }

  /// EOF check for a one-shot stream: throws the truncation errors if
  /// the stream ended before its worker_done.
  void finish_stream() const {
    require(header_seen_, "worker stream: empty (no wire_header)");
    if (in_shard_) {
      fail(cat("worker stream: truncated inside shard ", cur_shard_, " (",
               cur_slot_, " of ", cur_used_, " cells)"));
    }
    require(done_, "worker stream: truncated (no worker_done)");
  }

  bool round_active() const { return !pending_.empty(); }
  std::size_t last_shard() const { return last_shard_; }
  std::size_t last_used() const { return last_used_; }
  bool header_seen() const { return header_seen_; }
  bool connection_done() const { return done_; }
  /// Shards of the current round not yet fully streamed — the retry set
  /// when the connection dies mid-round.
  std::vector<std::size_t> round_unfinished() const {
    return {pending_.begin(), pending_.end()};
  }

 private:
  void feed_header(const JsonValue& object) {
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
  }

  bool feed_shard(const JsonValue& object) {
    require(!in_shard_, "worker stream:", line_no_, ": expected cell ",
            cur_slot_, " of shard ", cur_shard_);
    wire::ShardBegin shard;
    require(wire::decode_shard_begin(object, shard),
            "worker stream:", line_no_, ": malformed shard line");
    // A replayed shard arrives after its round closed, so this check
    // runs before the round check to name what went wrong.
    require(consumed_.insert(shard.shard).second,
            "worker stream: shard ", shard.shard, " streamed twice");
    require(round_active(),
            "worker stream:", line_no_, ": shard outside a round");
    require(pending_.count(shard.shard) != 0,
            "worker stream: shard ", shard.shard, " was not assigned");
    require(shard.used <= cells_per_shard_ && shard.used % inner_ == 0,
            "worker stream: shard ", shard.shard, " claims ", shard.used,
            " cells (capacity ", cells_per_shard_, ")");
    if (shard.used == 0) return complete_shard(shard.shard, 0);
    in_shard_ = true;
    cur_shard_ = shard.shard;
    cur_coords_ = sweep_shard_coords(spec_, cur_shard_);
    cur_used_ = shard.used;
    cur_slot_ = 0;
    return false;
  }

  bool feed_cell(const JsonValue& object) {
    require(in_shard_, "worker stream:", line_no_, ": unexpected cell line");
    wire::Cell cell;
    require(wire::decode_cell(object, cell),
            "worker stream:", line_no_, ": malformed cell payload");
    require(cell.shard == cur_shard_ && cell.slot == cur_slot_,
            "worker stream:", line_no_, ": expected cell ", cur_slot_,
            " of shard ", cur_shard_);

    SweepCell& dest = cur_dest();
    dest.report = std::move(cell.payload.report);
    dest.moved_names = std::move(cell.payload.moved_names);
    return land_cell(dest);
  }

  SweepCell& cur_dest() {
    return summary_.cells[cur_shard_ * cells_per_shard_ + cur_slot_];
  }

  /// Completes the current slot once its payload is in `dest`.
  /// Coordinates derivable from the shard and slot indices are derived
  /// HERE, by the slot layout the single-process sweep uses — the wire
  /// cannot place a cell on a platform it was not computed for.
  bool land_cell(SweepCell& dest) {
    fill_slot_coords(spec_, budgets_, cur_coords_, cur_slot_, dest);
    dest.constraint = dest.report.timing_constraint;
    ++cur_slot_;
    return cur_slot_ == cur_used_ && complete_shard(cur_shard_, cur_used_);
  }

  bool complete_shard(std::size_t shard, std::size_t used) {
    in_shard_ = false;
    pending_.erase(shard);
    shard_used_[shard] = used;
    total_cells_ += used;
    last_shard_ = shard;
    last_used_ = used;
    return true;
  }

  const SweepSpec& spec_;
  SweepSummary& summary_;
  std::vector<std::size_t>& shard_used_;
  const std::size_t shards_;
  const std::size_t cells_per_shard_;
  const std::vector<double> budgets_;
  const std::size_t inner_;

  bool header_seen_ = false;
  bool done_ = false;
  std::size_t line_no_ = 0;
  std::size_t total_cells_ = 0;
  std::set<std::size_t> pending_;   ///< this round's shards not yet landed
  std::set<std::size_t> consumed_;  ///< across all rounds of the connection

  bool in_shard_ = false;
  std::size_t cur_shard_ = 0;
  SweepShardCoords cur_coords_;  ///< priced once per shard line
  std::size_t cur_used_ = 0;
  std::size_t cur_slot_ = 0;
  std::size_t last_shard_ = 0;
  std::size_t last_used_ = 0;
};

/// The worker half both entry points run: announces the header, then
/// answers each assign line `next_line` yields until a shutdown.
/// `next_line(line)` reads one coordinator line, false at end of input.
template <class NextLine>
std::size_t serve_assigns(const std::vector<CorpusApp>& corpus,
                          const SweepSpec& spec, NextLine next_line,
                          std::ostream& out, const ShardEmitHook& after_shard) {
  validate_sweep_inputs(corpus, spec);
  const std::size_t shards = sweep_shard_count(corpus, spec);

  wire::Header header;
  header.protocol = kSweepWireProtocolVersion;
  header.schema_version = kSweepCacheSchemaVersion;
  header.fingerprint_algorithm = kFingerprintAlgorithmVersion;
  header.shards = shards;
  wire::encode_header(out, header);
  out.flush();
  require(out.good(), "run_sweep_worker_connected: stream write failed");

  std::size_t total = 0;
  std::size_t emitted_shards = 0;
  std::vector<char> computed(shards, 0);
  std::string line;
  while (next_line(line)) {
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
        // Streams the batch in assigned order, flushing each shard so a
        // pipe or socket streams; nothing follows the last one.
        compute_sweep_shards(
            corpus, spec, assign.shards,
            [&](std::size_t job, std::vector<SweepCell>& cells,
                std::size_t used) {
              const std::size_t shard = assign.shards[job];
              wire::encode_shard_begin(out, {shard, used});
              for (std::size_t i = 0; i < used; ++i) {
                wire::encode_cell(out, shard, i, cells[i].report,
                                  cells[i].moved_names);
              }
              out.flush();
              total += used;
              ++emitted_shards;
              if (after_shard) after_shard(emitted_shards);
            });
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

}  // namespace

std::size_t run_sweep_worker(const std::vector<CorpusApp>& corpus,
                             const SweepSpec& spec,
                             const std::vector<std::size_t>& assigned,
                             std::ostream& os,
                             const ShardEmitHook& after_shard) {
  const std::string control[] = {wire::encode_assign({assigned}),
                                 wire::encode_shutdown()};
  std::size_t next = 0;
  const auto next_line = [&](std::string& line) {
    if (next == std::size(control)) return false;
    line = control[next++];
    line.pop_back();  // the encoders end each line with '\n'
    return true;
  };
  return serve_assigns(corpus, spec, next_line, os, after_shard);
}

std::size_t run_sweep_worker_connected(const std::vector<CorpusApp>& corpus,
                                       const SweepSpec& spec, std::istream& in,
                                       std::ostream& out,
                                       const ShardEmitHook& after_shard) {
  const auto next_line = [&](std::string& line) {
    return static_cast<bool>(std::getline(in, line));
  };
  return serve_assigns(corpus, spec, next_line, out, after_shard);
}

void consume_worker_stream(std::istream& in,
                           const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec,
                           const std::vector<std::size_t>& assigned,
                           SweepSummary& summary,
                           std::vector<std::size_t>& shard_used) {
  StreamConsumer consumer(sweep_shard_count(corpus, spec), spec, summary,
                          shard_used);
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
    StreamConsumer consumer;
    Clock::time_point last_activity;
    /// A fresh worker's first assign line, held back until its
    /// wire_header arrives: a worker still building its corpus is not
    /// reading yet, and a large batch would overrun the socket buffer.
    std::string first_assign;

    Conn(std::unique_ptr<WorkerChannel> ch, std::size_t shards,
         const SweepSpec& spec, SweepSummary& summary,
         std::vector<std::size_t>& shard_used)
        : channel(std::move(ch)),
          consumer(shards, spec, summary, shard_used),
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
    const std::string line = wire::encode_assign({batch});
    if (!conn.consumer.header_seen()) {
      conn.first_assign = line;
    } else if (!conn.channel->write_line(line)) {
      return false;
    }
    queue.erase(queue.begin(), end);
    conn.consumer.begin_round(batch);
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
      conns.push_back(std::make_unique<Conn>(std::move(channel), shards, spec,
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
      if (conn.consumer.feed(line)) note_complete(conn);
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
      if (!(*it)->consumer.round_active() && !queue.empty() &&
          !assign(**it)) {
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
        if (conn.consumer.round_active()) {
          fail_conn(conn, "disconnected mid-round");
        }
        continue;
      }
      if (conn.consumer.round_active() && options.idle_timeout_ms > 0 &&
          Clock::now() - conn.last_activity >
              std::chrono::milliseconds(options.idle_timeout_ms)) {
        fail_conn(conn, "idle timeout");
        continue;  // drop: ~Conn SIGKILLs a forked worker / drops a socket
      }
      kept.push_back(std::move(conns[i]));
    }
    conns.swap(kept);
  }

  // Every shard landed, so every live worker's round has ended. Wind
  // every worker down with the shutdown handshake: send shutdown, read
  // worker_done, then finish() — which for a forked worker waits for
  // its exit, so its --cache save is on disk before serve returns. All
  // shutdowns go out before the first wait, so the workers' saves
  // overlap. A worker that misses a step or exits nonzero fails the
  // run.
  const Clock::time_point goodbye_deadline =
      Clock::now() + std::chrono::seconds(10);
  auto handshake_error = [](const Conn& conn) {
    return cat("serve_design_space: ", conn.channel->describe(),
               " did not complete the shutdown handshake");
  };
  for (const std::unique_ptr<Conn>& conn : conns) {
    require(conn->channel->write_line(wire::encode_shutdown()),
            handshake_error(*conn));
  }
  for (const std::unique_ptr<Conn>& conn : conns) {
    while (!conn->consumer.connection_done() &&
           Clock::now() < goodbye_deadline) {
      pollfd pfd{conn->channel->poll_fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno == EINTR) continue;
      require(ready >= 0, "serve_design_space: poll failed");
      if (ready > 0 && !drain_conn(*conn)) break;
    }
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
