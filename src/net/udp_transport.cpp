#include "net/udp_transport.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "net/wire.hpp"

namespace geochoice::net {

namespace {

[[nodiscard]] std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

[[nodiscard]] sockaddr_in to_sockaddr(const Endpoint& e) noexcept {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(e.ipv4);
  a.sin_port = htons(e.port);
  return a;
}

}  // namespace

UdpTransport::UdpTransport(std::uint32_t self, std::uint16_t port)
    : self_(self), epoch_ns_(monotonic_ns()) {
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("UdpTransport: socket");
  sockaddr_in addr = to_sockaddr(Endpoint{0x7f000001u, port});
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: bind");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: getsockname");
  }
  port_ = ntohs(addr.sin_port);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: epoll_create1");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &ev) != 0) {
    const int saved = errno;
    close(epoll_fd_);
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: epoll_ctl");
  }
}

UdpTransport::~UdpTransport() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (fd_ >= 0) close(fd_);
}

void UdpTransport::set_peers(std::vector<Endpoint> peers) {
  peers_ = std::move(peers);
}

void UdpTransport::send(const Message& m) {
  if (m.at >= peers_.size()) {
    throw std::logic_error("UdpTransport::send: no endpoint for node " +
                           std::to_string(m.at));
  }
  // A message to this node never leaves the process: no datagram, no
  // link, just the next poll()'s local queue.
  if (m.at == self_) {
    ++local_deliveries_;
    deliver_local(m);
    return;
  }
  links_.count(m.type);
  const wire::Frame f = wire::encode(m);
  const sockaddr_in addr = to_sockaddr(peers_[m.at]);
  // A full socket buffer or transient kernel refusal drops the datagram —
  // exactly what a real network would do; the protocol's retransmit
  // timers own recovery. The drop is counted so it never goes unseen.
  if (sendto(fd_, f.data(), f.size(), 0,
             reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ++send_errors_;
  }
}

std::uint64_t UdpTransport::now_ms() const {
  return (monotonic_ns() - epoch_ns_) / 1'000'000ULL;
}

std::uint64_t UdpTransport::now_us() const {
  return (monotonic_ns() - epoch_ns_) / 1'000ULL;
}

int UdpTransport::wait_readable(int timeout_ms) {
  epoll_event ev{};
  for (;;) {
    const int n = epoll_wait(epoll_fd_, &ev, 1, timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    throw_errno("UdpTransport: epoll_wait");
  }
}

bool UdpTransport::recv_one(Message& out) {
  std::uint8_t buf[wire::kFrameSize + 16];  // oversized frames must fail decode
  for (;;) {
    const ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw_errno("UdpTransport: recvfrom");
    }
    auto decoded = wire::decode(buf, static_cast<std::size_t>(n));
    if (!decoded) {
      ++malformed_;
      continue;  // hostile or truncated datagram: drop, keep serving
    }
    out = *decoded;
    return true;
  }
}

}  // namespace geochoice::net
