#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/net.h"

namespace amdrel::core {

// ---------------------------------------------------------------------------
// Pluggable worker transports for the distributed sweep service
// (core/sweep_service.h). The coordinator's fault-tolerant event loop is
// written against two small interfaces:
//
//   WorkerChannel — one connected worker: a pollable fd, a non-blocking
//   line reader, and (for bidirectional transports) a line writer. The
//   channel owns the worker's lifetime: destroying an unfinished channel
//   forcibly terminates a forked worker (SIGKILL to its process group,
//   then reap) or drops a socket — the coordinator's idle-timeout
//   retirement path.
//
//   Transport — a factory of channels. ForkPipeTransport reproduces the
//   pre-Transport behavior byte-for-byte: fork/exec a worker process
//   whose argv carries its shard assignment and whose stdout carries the
//   static wire stream. TcpTransport accepts `amdrelc worker --connect`
//   dial-ins on a listening socket and speaks the bidirectional wire v3
//   control lines (core/wire.h), so one coordinator can drive workers on
//   many hosts and reassign work to survivors when one dies.
// ---------------------------------------------------------------------------

/// Result of draining a channel.
enum class ChannelStatus {
  kOk,      ///< channel still open (zero or more lines drained)
  kClosed,  ///< EOF or hard error; no further lines will arrive
};

/// One connected worker endpoint.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  /// fd to poll (POLLIN) for readability.
  virtual int poll_fd() const = 0;

  /// Drains whatever is readable without blocking and appends every
  /// COMPLETE line (newline stripped) to `lines`. A trailing fragment
  /// with no newline stays buffered — at EOF it is discarded, which is
  /// exactly the truncated-stream case the consumer rejects.
  virtual ChannelStatus read_lines(std::vector<std::string>& lines) = 0;

  /// Sends one full protocol line (trailing newline included). False on
  /// a write-incapable channel (pipe transport) or a broken peer; once a
  /// write fails the channel stays write-broken so a torn line can never
  /// be followed by more bytes.
  virtual bool write_line(const std::string& line) = 0;

  /// Whether the peer accepts further "assign" batches after finishing a
  /// round (wire v3 dynamic protocol). Fork/pipe workers are static:
  /// their one batch is fixed in argv at spawn.
  virtual bool supports_reassignment() const = 0;

  /// After kClosed: reaps/clean-closes the worker. True if it went down
  /// cleanly (exit status 0 for a forked worker; always true for a
  /// socket). Idempotent; never blocks on a live well-behaved peer.
  virtual bool finish() = 0;

  /// For diagnostics: "worker 2 (pid 4711)", "tcp worker 0", ...
  virtual const std::string& describe() const = 0;
};

/// Factory of worker channels.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Produces a channel that will compute `shards`. For a spawning
  /// transport the assignment is fixed at launch (argv); for an
  /// accepting transport `shards` is advisory — the coordinator sends
  /// the batch over the wire after the channel opens. Waits up to
  /// timeout_ms for a worker to materialize (0 = only one already
  /// pending); nullptr on timeout. Throws Error on hard failures.
  virtual std::unique_ptr<WorkerChannel> open_worker(
      const std::vector<std::size_t>& shards, int timeout_ms) = 0;

  virtual const std::string& describe() const = 0;
};

/// Maps a worker's assigned shard list to the argv of the process to
/// spawn (argv[0] = executable, resolved via PATH). The process must
/// speak the static wire protocol on stdout. The CLI builds
/// "amdrelc worker ... --shards i,j,..." here.
using WorkerCommandFn =
    std::function<std::vector<std::string>(const std::vector<std::size_t>&)>;

/// Local fork/exec transport: one-directional pipe from the worker's
/// stdout, byte-for-byte the pre-Transport serve behavior. Each worker
/// leads its own process group, so retiring it also kills any process
/// it spawned. Retry support comes from respawning (open_worker with the
/// unfinished shards), not reassignment.
class ForkPipeTransport : public Transport {
 public:
  explicit ForkPipeTransport(WorkerCommandFn command);

  std::unique_ptr<WorkerChannel> open_worker(
      const std::vector<std::size_t>& shards, int timeout_ms) override;
  const std::string& describe() const override;

 private:
  WorkerCommandFn command_;
  std::string describe_;
  int spawned_ = 0;
};

/// Socket transport: accepts `amdrelc worker --connect host:port`
/// dial-ins on a listening socket (support/net.h) and assigns work over
/// the wire v3 control lines, so shards can be reassigned to surviving
/// workers without respawning anything.
class TcpTransport : public Transport {
 public:
  /// Takes ownership of a listening socket (net::listen_tcp).
  explicit TcpTransport(support::net::Socket listener);

  /// The locally bound port (ephemeral-port discovery for --listen :0).
  int port() const;

  std::unique_ptr<WorkerChannel> open_worker(
      const std::vector<std::size_t>& shards, int timeout_ms) override;
  const std::string& describe() const override;

 private:
  support::net::Socket listener_;
  std::string describe_;
  int accepted_ = 0;
};

}  // namespace amdrel::core
