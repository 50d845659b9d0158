// udp_transport.hpp — the real-world side of the net::Transport seam.
//
// Where SimTransport (transport.hpp) schedules a message on a calendar
// queue, UdpTransport encodes it with the fixed wire codec (wire.hpp)
// and writes one datagram to the destination node's UDP socket. The
// socket is nonblocking and driven through epoll; timers come from a
// TimerWheel ticked in milliseconds of CLOCK_MONOTONIC. One transport =
// one node = one socket; addressing is by node id through a peer table
// the caller installs once the cluster's ports are known (ephemeral
// ports force the two-phase setup: bind everyone, learn the ports, then
// exchange the table).
//
// The surface is the one NodeLogic and ClientDriver (node.hpp) are
// written against, verb for verb with SimTransport: send one message to
// its `at` node, deliver locally, schedule / cancel a timer, read the
// clock. What differs is the world behind it: there is no global clock,
// so poll() pumps the socket and the wheel instead of a drive loop
// popping a queue; a message a node addresses to itself (an op's first
// hop, a reply to a client on the owner's own node) never enters the
// kernel but waits on an in-process queue for the next poll(); and
// timers fire, through their own callback, because datagrams get lost.
//
// Thread model: single-threaded, like the node it serves. Everything —
// send, poll, timers — happens on the caller's one event-loop thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"

namespace geochoice::net {

/// One peer's reachable address. Loopback clusters fill `port` from
/// getsockname() after binding port 0.
struct Endpoint {
  std::uint32_t ipv4 = 0x7f000001u;  // host byte order; default 127.0.0.1
  std::uint16_t port = 0;
};

class UdpTransport {
 public:
  using Timer = TimerWheel<Message>::Id;

  /// Bind a nonblocking UDP socket for node `self` on 127.0.0.1:`port`
  /// (0 = ephemeral; read the result back with port()). Throws
  /// std::system_error when the socket layer refuses.
  UdpTransport(std::uint32_t self, std::uint16_t port);
  ~UdpTransport();

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Node id → address table, indexed by id. Must cover every id this
  /// node will ever send to; installed once after all peers have bound.
  void set_peers(std::vector<Endpoint> peers);

  [[nodiscard]] std::uint32_t self() const noexcept { return self_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Encode and transmit one datagram to m.at. Dropped datagrams are the
  /// network's business — reliability is the protocol's retransmit
  /// timers, not the transport's. A datagram the kernel refuses (full
  /// socket buffer, unreachable or forbidden address) is counted in
  /// send_errors(), not thrown. A message to self() is not a datagram:
  /// it goes onto the local queue, as deliver_local does, and is counted
  /// in local_deliveries(), not in links().
  void send(const Message& m);

  /// Local delivery without touching the wire: queued and handed to the
  /// next poll()'s on_message, mirroring SimTransport::deliver_local.
  void deliver_local(const Message& m) { local_.push_back(m); }

  /// Arm a retransmit alarm: `m` comes back through poll()'s on_timer
  /// after `delay_ms`. Cancel with cancel() when the awaited reply
  /// arrives first (the common case).
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    return wheel_.schedule(delay_ms ? delay_ms : 1, m);
  }
  void cancel(Timer t) { wheel_.cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return wheel_.armed(t); }

  /// Pump one round: drain locally-delivered messages, wait up to
  /// `timeout_ms` for datagrams (0 = just poll), decode and dispatch
  /// every readable frame, then fire due timers. Malformed datagrams are
  /// counted and dropped. on_message(const Message&), on_timer(const
  /// Message&).
  template <typename OnMessage, typename OnTimer>
  void poll(int timeout_ms, OnMessage&& on_message, OnTimer&& on_timer) {
    // Swap out the local queue first: handlers may send to self again,
    // and those land in the *next* round, keeping this loop finite.
    scratch_.clear();
    scratch_.swap(local_);
    for (const Message& m : scratch_) on_message(m);
    Message m;
    const int readable = wait_readable(scratch_.empty() ? timeout_ms : 0);
    if (readable > 0) {
      while (recv_one(m)) on_message(m);
    }
    wheel_.advance(now_ms(), [&](const Message& t) { on_timer(t); });
  }

  /// Wire-cost counters, same meaning as SimTransport's: datagrams sent,
  /// by message type.
  [[nodiscard]] const LinkCounters& links() const noexcept { return links_; }
  /// Sends addressed to self() and handed over in-process instead of as
  /// datagrams; links().total + local_deliveries() counts every send().
  [[nodiscard]] std::uint64_t local_deliveries() const noexcept {
    return local_deliveries_;
  }
  /// Datagrams received that failed wire::decode (noise, truncation,
  /// version skew). A healthy loopback cluster keeps this at zero.
  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_; }
  /// Datagrams sendto() refused; each is also in links(). A healthy
  /// loopback cluster keeps this at zero.
  [[nodiscard]] std::uint64_t send_errors() const noexcept {
    return send_errors_;
  }

  /// Milliseconds of CLOCK_MONOTONIC since construction — the timer
  /// wheel's timebase, exposed for latency measurement.
  [[nodiscard]] std::uint64_t now_ms() const;
  /// Microseconds of CLOCK_MONOTONIC since construction (latency stats).
  [[nodiscard]] std::uint64_t now_us() const;

 private:
  /// epoll_wait bounded by timeout_ms; >0 when the socket is readable.
  int wait_readable(int timeout_ms);
  /// One recvfrom + decode; false on EAGAIN (drained).
  bool recv_one(Message& out);

  std::uint32_t self_;
  int fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::vector<Endpoint> peers_;
  std::vector<Message> local_;
  std::vector<Message> scratch_;
  TimerWheel<Message> wheel_;
  LinkCounters links_;
  std::uint64_t local_deliveries_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t send_errors_ = 0;
};

}  // namespace geochoice::net
