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

ForkPipeTransport::ForkPipeTransport(WorkerCommandFn command)
    : command_(std::move(command)), describe_("fork/pipe") {}

std::unique_ptr<WorkerChannel> ForkPipeTransport::open_worker(
    const std::vector<std::size_t>&, int) {
  fail("ForkPipeTransport: requires POSIX fork/pipe");
}

const std::string& ForkPipeTransport::describe() const { return describe_; }

TcpTransport::TcpTransport(support::net::Socket listener)
    : listener_(std::move(listener)), describe_("tcp") {}

int TcpTransport::port() const { fail("TcpTransport: requires POSIX sockets"); }

std::unique_ptr<WorkerChannel> TcpTransport::open_worker(
    const std::vector<std::size_t>&, int) {
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

/// Both concrete channels: a non-blocking read fd plus, for sockets, the
/// same fd writable. `pid` >= 0 marks a forked worker the channel must
/// reap (or SIGKILL on early destruction).
class FdChannel : public WorkerChannel {
 public:
  FdChannel(int fd, pid_t pid, bool reassignable, std::string name)
      : fd_(fd), pid_(pid), reassignable_(reassignable),
        name_(std::move(name)) {
    set_nonblocking(fd_);
    set_cloexec(fd_);
  }

  ~FdChannel() override {
    if (pid_ >= 0 && !reaped_) {
      // An unfinished forked worker is being retired (idle timeout or
      // failed run): make sure it dies before we wait on it. The worker
      // leads its own process group, so this also kills whatever it
      // spawned (a wrapper shell's children), which would otherwise
      // outlive it holding the pipe open.
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
    if (!reassignable_ || write_broken_ || closed_) return false;
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

  bool supports_reassignment() const override {
    return reassignable_ && !write_broken_;
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
  bool reassignable_ = false;
  std::string name_;
  std::string buffer_;
  bool closed_ = false;
  bool write_broken_ = false;
  bool reaped_ = false;
  bool clean_ = false;
};

}  // namespace

ForkPipeTransport::ForkPipeTransport(WorkerCommandFn command)
    : command_(std::move(command)), describe_("fork/pipe") {
  require(static_cast<bool>(command_),
          "ForkPipeTransport: no worker command configured");
}

std::unique_ptr<WorkerChannel> ForkPipeTransport::open_worker(
    const std::vector<std::size_t>& shards, int timeout_ms) {
  (void)timeout_ms;  // forking is immediate
  const std::vector<std::string> command = command_(shards);
  require(!command.empty(), "ForkPipeTransport: empty worker argv");
  int fds[2];
  require(::pipe(fds) == 0, "ForkPipeTransport: pipe failed");
  const pid_t pid = ::fork();
  require(pid >= 0, "ForkPipeTransport: fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);  // its own group, so one kill reaches its children
    ::dup2(fds[1], 1);  // the wire protocol is the child's stdout
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(command.size() + 1);
    for (const std::string& arg : command) {
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
      fds[0], pid, /*reassignable=*/false,
      cat("worker ", index, " (pid ", static_cast<long>(pid), ")"));
}

const std::string& ForkPipeTransport::describe() const { return describe_; }

TcpTransport::TcpTransport(support::net::Socket listener)
    : listener_(std::move(listener)), describe_("tcp") {
  require(listener_.valid(), "TcpTransport: invalid listening socket");
  set_cloexec(listener_.fd());
}

int TcpTransport::port() const { return support::net::local_port(listener_); }

std::unique_ptr<WorkerChannel> TcpTransport::open_worker(
    const std::vector<std::size_t>& shards, int timeout_ms) {
  (void)shards;  // assignment travels on the wire after the accept
  std::optional<support::net::Socket> conn =
      support::net::accept_tcp(listener_, timeout_ms);
  if (!conn) return nullptr;
  const int index = accepted_++;
  return std::make_unique<FdChannel>(conn->release(), /*pid=*/-1,
                                     /*reassignable=*/true,
                                     cat("tcp worker ", index));
}

const std::string& TcpTransport::describe() const { return describe_; }

#endif

}  // namespace amdrel::core
