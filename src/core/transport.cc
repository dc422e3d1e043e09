#include "core/transport.h"

#include <cstdio>
#include <utility>

#ifndef _WIN32
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::core {

#ifdef _WIN32

ForkPipeTransport::ForkPipeTransport(std::vector<std::string> command)
    : command_(std::move(command)), describe_("fork") {}

std::unique_ptr<WorkerChannel> ForkPipeTransport::open_worker(int) {
  fail("ForkPipeTransport: requires POSIX fork/socketpair");
}

const std::string& ForkPipeTransport::describe() const { return describe_; }

TcpTransport::TcpTransport(support::net::Socket listener)
    : listener_(std::move(listener)), describe_("tcp") {}

int TcpTransport::port() const { fail("TcpTransport: requires POSIX sockets"); }

std::unique_ptr<WorkerChannel> TcpTransport::open_worker(int) {
  fail("TcpTransport: requires POSIX sockets");
}

const std::string& TcpTransport::describe() const { return describe_; }

#else

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  require(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
          "transport: cannot set O_NONBLOCK");
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  require(flags >= 0 && ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0,
          "transport: cannot set FD_CLOEXEC");
}

/// Both concrete channels: one non-blocking socket fd, read and
/// written. `pid` >= 0 marks a forked worker the channel must reap (or
/// SIGKILL on early destruction).
class FdChannel : public WorkerChannel {
 public:
  FdChannel(int fd, pid_t pid, std::string name)
      : fd_(fd), pid_(pid), name_(std::move(name)) {
    set_nonblocking(fd_);
    set_cloexec(fd_);
  }

  ~FdChannel() override {
    if (pid_ >= 0 && !reaped_) {
      // An unfinished forked worker is being retired (dead, idle
      // timeout or failed run): make sure it dies before we wait on it.
      // The worker leads its own process group, so this also kills
      // whatever it spawned (a wrapper shell's children), which would
      // otherwise outlive it holding the socket open.
      ::kill(-pid_, SIGKILL);
      reap();
    }
    if (fd_ >= 0) ::close(fd_);
  }

  int poll_fd() const override { return fd_; }

  ChannelStatus read_lines(std::vector<std::string>& lines) override {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        closed_ = true;
        break;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer_.find('\n', start);
      if (nl == std::string::npos) break;
      lines.emplace_back(buffer_, start, nl - start);
      start = nl + 1;
    }
    buffer_.erase(0, start);
    return closed_ ? ChannelStatus::kClosed : ChannelStatus::kOk;
  }

  bool write_line(const std::string& line) override {
    if (write_broken_ || closed_) return false;
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, 2000);
        if (ready > 0) continue;
      }
      // A torn line must never be followed by more bytes: the channel
      // stays write-broken and the coordinator routes around it.
      write_broken_ = true;
      return false;
    }
    return true;
  }

  bool finish() override {
    if (pid_ < 0) return true;
    return reap();
  }

  const std::string& describe() const override { return name_; }

 private:
  bool reap() {
    if (reaped_) return clean_;
    int status = 0;
    pid_t got = -1;
    do {
      got = ::waitpid(pid_, &status, 0);
    } while (got < 0 && errno == EINTR);
    reaped_ = true;
    clean_ = got == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return clean_;
  }

  int fd_ = -1;
  pid_t pid_ = -1;
  std::string name_;
  std::string buffer_;
  bool closed_ = false;
  bool write_broken_ = false;
  bool reaped_ = false;
  bool clean_ = false;
};

}  // namespace

ForkPipeTransport::ForkPipeTransport(std::vector<std::string> command)
    : command_(std::move(command)), describe_("fork") {
  require(!command_.empty(), "ForkPipeTransport: empty worker argv");
}

std::unique_ptr<WorkerChannel> ForkPipeTransport::open_worker(int timeout_ms) {
  (void)timeout_ms;  // forking is immediate
  int fds[2];
  require(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
          "ForkPipeTransport: socketpair failed");
  const pid_t pid = ::fork();
  require(pid >= 0, "ForkPipeTransport: fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);  // its own group, so one kill reaches its children
    // The wire protocol is the child's stdin and stdout.
    ::dup2(fds[1], 0);
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(command_.size() + 1);
    for (const std::string& arg : command_) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "amdrelc serve: cannot exec %s\n", argv[0]);
    ::_exit(127);
  }
  // Also set from this side, so the group exists before any kill; the
  // loser of the race with the child's own call fails harmlessly.
  ::setpgid(pid, pid);
  ::close(fds[1]);
  const int index = spawned_++;
  return std::make_unique<FdChannel>(
      fds[0], pid,
      cat("worker ", index, " (pid ", static_cast<long>(pid), ")"));
}

const std::string& ForkPipeTransport::describe() const { return describe_; }

TcpTransport::TcpTransport(support::net::Socket listener)
    : listener_(std::move(listener)), describe_("tcp") {
  require(listener_.valid(), "TcpTransport: invalid listening socket");
  set_cloexec(listener_.fd());
}

int TcpTransport::port() const { return support::net::local_port(listener_); }

std::unique_ptr<WorkerChannel> TcpTransport::open_worker(int timeout_ms) {
  std::optional<support::net::Socket> conn =
      support::net::accept_tcp(listener_, timeout_ms);
  if (!conn) return nullptr;
  const int index = accepted_++;
  return std::make_unique<FdChannel>(conn->release(), /*pid=*/-1,
                                     cat("tcp worker ", index));
}

const std::string& TcpTransport::describe() const { return describe_; }

#endif

}  // namespace amdrel::core
