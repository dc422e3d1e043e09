#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/schema.h"
#include "core/transport.h"

namespace amdrel::core {

// ---------------------------------------------------------------------------
// Distributed sweep service: the coordinator/worker split of
// sweep_design_space, serving a corpus on a fleet of workers.
//
// Topology: `amdrelc serve` keeps the deterministic (app, platform)
// shard indices in one queue and hands them out to N workers reached
// through a pluggable core::Transport — locally forked `amdrelc worker`
// processes talking on their stdin/stdout (ForkPipeTransport) or
// `amdrelc worker --connect` dial-ins over TCP (TcpTransport). Each idle
// worker takes the next batch, the first ceil(queued / N) shards (guided
// self-scheduling), so one worker gets the whole sweep in one assign and
// N workers get shrinking batches whose tail the first idle one steals.
// Both transports speak one protocol: the coordinator sends "assign"
// batches, and every worker runs them through compute_sweep_shards, the
// loop a single-process sweep runs, and streams the resulting cell
// groups back as newline-delimited JSON (core/wire.h); a round ends
// when its last assigned shard lands. The coordinator writes each
// streamed cell into the slot the single-process layout assigns it and
// derives the Pareto fronts itself (finalize_sweep_summary), so the
// merged summary is byte-identical to a single-process sweep at ANY
// worker count — and under ANY injected worker failure — by
// construction rather than by comparison.
//
// Fault tolerance: the coordinator tracks per-worker health (disconnect
// detection plus an idle timeout) and puts a dead worker's *unfinished*
// shards back on the queue, where the surviving workers take them. Fresh
// workers — newly accepted dial-ins or respawned processes — are opened
// only when no worker is left. Each shard gets a bounded number of
// attempts. Re-computation is safe because cells are content-addressed
// and deterministic: a retried shard overwrites the dead worker's
// partial cells with identical bytes, and a shard counts as done exactly
// once.
//
// Failure semantics: strict where it must be. A version-mismatched
// header, an unassigned or repeated shard, an out-of-order slot, a
// malformed cell or any other PROTOCOL violation still throws Error and
// fails the whole run — only CONNECTION failures (EOF mid-stream, a
// killed or hung worker) are retried, and once a shard exhausts its
// retry budget the run fails loudly. A worker still live at the end
// must complete the shutdown handshake, and a forked one must exit 0.
// There is never a silently partial merged artifact.
// ---------------------------------------------------------------------------

// The coordinator<->worker wire protocol version
// (kSweepWireProtocolVersion) lives with every other persisted-format
// constant in core/schema.h; the line grammar and codecs live in
// core/wire.h. The coordinator rejects a worker speaking a different
// version.

/// Observation hook: called after each shard a worker emits, with the
/// running count of shards emitted on this stream. The CLI's
/// fault-injection flag (--fail-after-shards) rides here.
using ShardEmitHook = std::function<void(std::size_t)>;

/// The in-process reference worker: run_sweep_worker_connected fed one
/// assign over `assigned` and a shutdown, so `os` gets the wire_header,
/// the assigned shards' shard/cell lines in assigned order, then
/// worker_done. No serve transport uses it; consume_worker_stream reads
/// it back. Honors spec.threads and spec.cache exactly like
/// sweep_design_space: cached cells are not recomputed, and fresh cells
/// are stored in the cache. Returns the number of cells emitted. Throws
/// Error on invalid inputs (out-of-range or duplicate shard indices) or
/// an unwritable stream.
std::size_t run_sweep_worker(const std::vector<CorpusApp>& corpus,
                             const SweepSpec& spec,
                             const std::vector<std::size_t>& assigned,
                             std::ostream& os,
                             const ShardEmitHook& after_shard = {});

/// Serve worker half: announces the header on `out`, then serves
/// "assign" batches read from `in`, each computed through
/// compute_sweep_shards and answered with its shard/cell lines and
/// nothing after the last shard, until a "shutdown" line, acknowledged
/// with a final worker_done. `amdrelc worker` runs it on stdin/stdout
/// when forked by serve and on a socket with --connect. Returns total
/// cells across all rounds. Throws Error if the coordinator breaks
/// protocol or disconnects before shutdown.
std::size_t run_sweep_worker_connected(const std::vector<CorpusApp>& corpus,
                                       const SweepSpec& spec, std::istream& in,
                                       std::ostream& out,
                                       const ShardEmitHook& after_shard = {});

/// Coordinator half of one run_sweep_worker stream: validates and
/// parses the whole stream as one round over `assigned` and writes its
/// cells into `summary.cells` (which must hold the full shards x
/// cells_per_shard slot layout) and its per-shard fill counts into
/// `shard_used`. It validates exactly as serve_design_space validates
/// each connection. Throws Error on any protocol violation.
void consume_worker_stream(std::istream& in,
                           const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec,
                           const std::vector<std::size_t>& assigned,
                           SweepSummary& summary,
                           std::vector<std::size_t>& shard_used);

/// How serve_design_space reaches workers and how patient it is with
/// them.
struct ServeOptions {
  /// Fleet width: how many workers serve opens (never more than there
  /// are queued shards), and the divisor of each batch. Values below 1
  /// count as 1.
  int workers = 1;
  /// Channel factory (core/transport.h). Required; not owned.
  Transport* transport = nullptr;
  /// Additional assignment attempts allowed per shard after the first
  /// before the run fails. 0 disables retry entirely.
  int max_shard_retries = 2;
  /// A worker whose stream stays silent this long mid-round is declared
  /// dead and its unfinished shards retried. <= 0 disables the timeout.
  int idle_timeout_ms = 300000;
  /// Streaming partial results: called as each shard completes — in
  /// completion order, exactly once per shard — with (shard index, its
  /// cells in slot order, used count). The cells live in the summary
  /// being assembled; copy anything that must outlive the call.
  std::function<void(std::size_t, const SweepCell*, std::size_t)>
      on_shard_complete;
};

/// Coordinator: hands the sweep's shards out from one queue to workers
/// reached through options.transport, merges their streams with
/// per-worker health tracking and bounded shard retry, and finalizes the
/// summary. The result is byte-identical to sweep_design_space(corpus,
/// spec) at any worker count and under any injected worker failure that
/// stays within the retry budget. Throws Error on protocol violations,
/// on a shard exhausting its retries, or when no worker materializes.
SweepSummary serve_design_space(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec,
                                const ServeOptions& options);

}  // namespace amdrel::core
