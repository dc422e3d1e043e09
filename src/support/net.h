#pragma once

#include <iostream>
#include <optional>
#include <streambuf>
#include <string>

namespace amdrel::support::net {

// ---------------------------------------------------------------------------
// Thin POSIX TCP wrapper for the sweep service's socket transport
// (core/transport.h). Deliberately tiny: RAII fds, listen/accept/connect
// with explicit timeouts, and a streambuf so the newline-delimited wire
// protocol can ride a socket through the same iostream code paths it
// rides a pipe or a stringstream.
// ---------------------------------------------------------------------------

/// RAII file descriptor (socket or otherwise). Move-only; closes on
/// destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  int release();
  void close();

 private:
  int fd_ = -1;
};

/// Splits "host:port" (":port" leaves host empty — callers choose the
/// wildcard/loopback default). False on a missing colon or a port
/// outside [0, 65535].
bool parse_host_port(const std::string& spec, std::string& host, int& port);

/// Binds and listens on host:port (IPv4; empty host = all interfaces,
/// port 0 = kernel-assigned ephemeral port — read it back with
/// local_port). Throws Error on failure.
Socket listen_tcp(const std::string& host, int port);

/// The locally bound port of a listening socket.
int local_port(const Socket& listener);

/// Accepts one connection, waiting up to timeout_ms (0 = only an
/// already-pending connection). nullopt on timeout; throws Error on a
/// hard failure.
std::optional<Socket> accept_tcp(const Socket& listener, int timeout_ms);

/// Connects to host:port (empty host = loopback), retrying a refused
/// connection until timeout_ms elapses — a worker routinely dials while
/// the coordinator is still binding. Throws Error on failure/timeout.
Socket connect_tcp(const std::string& host, int port, int timeout_ms);

/// std::streambuf over a connected fd, both directions. Writes use
/// send(MSG_NOSIGNAL) where the fd is a socket so a vanished peer
/// surfaces as a stream error instead of SIGPIPE. Does not own the fd.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_buffer();

  static constexpr std::size_t kBufSize = 65536;
  int fd_ = -1;
  char in_[kBufSize];
  char out_[kBufSize];
};

/// iostream over a connected fd (does not own it): the dynamic worker
/// loop reads assigns and streams cells through this exactly as it
/// would through stdin/stdout.
class FdIoStream : public std::iostream {
 public:
  explicit FdIoStream(int fd) : std::iostream(&buf_), buf_(fd) {}

 private:
  FdStreamBuf buf_;
};

}  // namespace amdrel::support::net
