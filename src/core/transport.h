#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/net.h"

namespace amdrel::core {

// ---------------------------------------------------------------------------
// Pluggable worker transports for the distributed sweep service
// (core/sweep_service.h). Both transports carry the one wire grammar
// (core/wire.h): the coordinator writes assign/shutdown lines, and the
// worker answers with its header, each assign batch's shard/cell lines
// (the round ends at its last shard) and a final worker_done after
// shutdown. The coordinator's fault-tolerant event loop is written
// against two small interfaces:
//
//   WorkerChannel — one connected worker: a pollable fd, a non-blocking
//   line reader and a line writer. The channel owns the worker's
//   lifetime: destroying an unfinished channel forcibly terminates a
//   forked worker (SIGKILL to its process group, then reap) or drops a
//   socket — the coordinator's retirement path for a dead or hung worker.
//
//   Transport — a factory of channels. ForkPipeTransport forks a local
//   `amdrelc worker` whose stdin and stdout are one end of a socketpair;
//   TcpTransport accepts `amdrelc worker --connect` dial-ins on a
//   listening socket, so one coordinator can drive workers on many
//   hosts.
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
  /// a broken peer; once a write fails the channel stays write-broken so
  /// a torn line can never be followed by more bytes.
  virtual bool write_line(const std::string& line) = 0;

  /// After the shutdown handshake: waits for a forked worker to exit
  /// (so its --cache save has finished) and reports whether it exited
  /// 0; always true for a socket. Idempotent.
  virtual bool finish() = 0;

  /// For diagnostics: "worker 2 (pid 4711)", "tcp worker 0", ...
  virtual const std::string& describe() const = 0;
};

/// Factory of worker channels.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Produces a channel to a new worker, waiting up to timeout_ms for
  /// one to materialize (0 = only one already pending); nullptr on
  /// timeout. The coordinator sends the worker its work over the
  /// channel. Throws Error on hard failures.
  virtual std::unique_ptr<WorkerChannel> open_worker(int timeout_ms) = 0;

  virtual const std::string& describe() const = 0;
};

/// Local fork/exec transport: runs `command` (argv[0] resolved via
/// PATH) with one end of a socketpair as both its stdin and stdout, so
/// the process must speak the wire round protocol there — the CLI runs
/// `amdrelc worker` with the sweep flags. Each worker leads its own
/// process group, so retiring it also kills any process it spawned.
class ForkPipeTransport : public Transport {
 public:
  explicit ForkPipeTransport(std::vector<std::string> command);

  std::unique_ptr<WorkerChannel> open_worker(int timeout_ms) override;
  const std::string& describe() const override;

 private:
  std::vector<std::string> command_;
  std::string describe_;
  int spawned_ = 0;
};

/// Socket transport: accepts `amdrelc worker --connect host:port`
/// dial-ins on a listening socket (support/net.h).
class TcpTransport : public Transport {
 public:
  /// Takes ownership of a listening socket (net::listen_tcp).
  explicit TcpTransport(support::net::Socket listener);

  /// The locally bound port (ephemeral-port discovery for --listen :0).
  int port() const;

  std::unique_ptr<WorkerChannel> open_worker(int timeout_ms) override;
  const std::string& describe() const override;

 private:
  support::net::Socket listener_;
  std::string describe_;
  int accepted_ = 0;
};

}  // namespace amdrel::core
