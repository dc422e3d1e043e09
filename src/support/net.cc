#include "support/net.h"

#include <cstring>

#include "support/error.h"
#include "support/strings.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <thread>
#include <unistd.h>
#endif

namespace amdrel::support::net {

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close() {
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

bool parse_host_port(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty()) return false;
  long value = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > 65535) return false;
  }
  host = spec.substr(0, colon);
  port = static_cast<int>(value);
  return true;
}

#ifdef _WIN32

bool available() { return false; }

Socket listen_tcp(const std::string&, int) {
  fail("net: requires POSIX sockets");
}
int local_port(const Socket&) { fail("net: requires POSIX sockets"); }
std::optional<Socket> accept_tcp(const Socket&, int) {
  fail("net: requires POSIX sockets");
}
Socket connect_tcp(const std::string&, int, int) {
  fail("net: requires POSIX sockets");
}

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {}
FdStreamBuf::int_type FdStreamBuf::underflow() { return traits_type::eof(); }
FdStreamBuf::int_type FdStreamBuf::overflow(int_type) {
  return traits_type::eof();
}
int FdStreamBuf::sync() { return -1; }
bool FdStreamBuf::flush_buffer() { return false; }

#else

bool available() { return true; }

namespace {

sockaddr_in resolve_ipv4(const std::string& host, int port,
                         const char* what) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  require(::getaddrinfo(host.c_str(), nullptr, &hints, &result) == 0 &&
              result != nullptr,
          what, ": cannot resolve host \"", host, "\"");
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

}  // namespace

Socket listen_tcp(const std::string& host, int port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  require(sock.valid(), "listen_tcp: socket failed");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = resolve_ipv4(host, port, "listen_tcp");
  require(::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                 sizeof addr) == 0,
          "listen_tcp: cannot bind ", host.empty() ? "*" : host, ":",
          port, " (", std::strerror(errno), ")");
  require(::listen(sock.fd(), 64) == 0,
          "listen_tcp: listen failed (", std::strerror(errno), ")");
  return sock;
}

int local_port(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  require(::getsockname(listener.fd(),
                        reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "local_port: getsockname failed");
  return static_cast<int>(ntohs(addr.sin_port));
}

std::optional<Socket> accept_tcp(const Socket& listener, int timeout_ms) {
  pollfd pfd{listener.fd(), POLLIN, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    require(ready >= 0, "accept_tcp: poll failed");
    if (ready == 0) return std::nullopt;
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
    require(fd >= 0, "accept_tcp: accept failed (", std::strerror(errno),
            ")");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Socket(fd);
  }
}

Socket connect_tcp(const std::string& host, int port, int timeout_ms) {
  const std::string target = host.empty() ? "127.0.0.1" : host;
  const sockaddr_in addr = resolve_ipv4(target, port, "connect_tcp");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    require(sock.valid(), "connect_tcp: socket failed");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return sock;
    }
    const int error = errno;
    require(error == ECONNREFUSED || error == EINTR || error == ETIMEDOUT,
            "connect_tcp: cannot connect ", target, ":", port, " (",
            std::strerror(error), ")");
    require(std::chrono::steady_clock::now() < deadline,
            "connect_tcp: timed out connecting ", target, ":", port);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(in_, in_, in_);
  setp(out_, out_ + kBufSize);
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  // Push out anything buffered before blocking on a read: the wire
  // protocol is strictly request/response for the dynamic worker, so an
  // unflushed request would deadlock the read.
  if (!flush_buffer()) return traits_type::eof();
  ssize_t n = 0;
  do {
    n = ::read(fd_, in_, kBufSize);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(in_, in_, in_ + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::flush_buffer() {
  const char* p = pbase();
  const char* end = pptr();
  while (p < end) {
    ssize_t n = ::send(fd_, p, static_cast<std::size_t>(end - p),
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd_, p, static_cast<std::size_t>(end - p));
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
  }
  setp(out_, out_ + kBufSize);
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flush_buffer() ? 0 : -1; }

#endif

}  // namespace amdrel::support::net
