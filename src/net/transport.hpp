// transport.hpp — the seam between node protocol logic and the world
// that moves its messages.
//
// The Chord + two-choice protocol has one implementation, NodeLogic and
// ClientDriver (node.hpp), templated on the transport. Two worlds run it:
//
//   * SimTransport (here): the deterministic discrete-event world that
//     NetSimulator (simulator.hpp) drives. Every node of the ring lives in
//     one process and shares this one transport. Sending samples one link
//     delay from the run's kNetLatency substream and schedules the
//     message on the calendar-queue MessageQueue; the clock is the time of
//     the event being executed.
//   * UdpTransport (udp_transport.hpp): the real world. Sending encodes
//     the message with the fixed wire codec (wire.hpp) and writes one UDP
//     datagram to the destination node's socket; delivery order and timing
//     are whatever the kernel and the network do, and timers come from a
//     timer wheel against the monotonic clock.
//
// Both expose the verbs the protocol calls — send(m) to its `at` node,
// deliver_local(m), schedule / cancel / armed for a retransmit timer,
// and a clock — so the protocol cannot tell which world it is in. That
// is the point: the simulator is the differential oracle for the served
// system, and it runs the served system's own handlers.
//
// The DES's cost model lives in SimTransport, not in the handlers:
//   * an op's first hop — a routed request still at its client, with no
//     hop taken — is a zero-delay local delivery: no link counted, no
//     delay drawn. UdpTransport does the same for every message a node
//     addresses to itself: an in-process hand-over, never a datagram;
//   * every message arrives exactly once, so timers never fire;
//   * link sends draw from the latency engine in send() order, the order
//     the pinned golden trace hashes fix.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net {

/// Per-type link-traversal counters every transport keeps: the wire cost
/// of the protocol, identical in meaning across worlds (simulated link
/// traversals there, UDP datagrams here).
struct LinkCounters {
  std::uint64_t total = 0;
  std::array<std::uint64_t, kMsgTypeCount> by_type{};

  void count(MsgType t) noexcept {
    ++total;
    ++by_type[static_cast<std::size_t>(t)];
  }
};

/// True for a transport that hosts every node of the ring in one process
/// on a simulated clock and delivers each message exactly once
/// (SimTransport declares `static constexpr bool kSimulated = true`).
/// Only the transport type decides this. The shared protocol templates
/// (node.hpp) consult it for what such a world does differently from a
/// real network: each op's client is a drawn node rather than the
/// driver's own, latencies are measured in simulated time, a node keeps
/// neither a site of its own nor at-most-once placement memory, and loads
/// are read from the node objects instead of by a census.
template <typename T>
inline constexpr bool kSimulated = requires { requires T::kSimulated; };

/// The discrete-event transport: one calendar queue of in-flight
/// messages, one latency substream, one clock. The drive loop pops events
/// (which advances the clock) and hands them to the protocol handlers,
/// which respond through send().
class SimTransport {
 public:
  static constexpr bool kSimulated = true;
  /// Timers never fire here, so a timer is an empty token.
  struct Timer {};

  /// `latency_engine` must be the run's kNetLatency substream;
  /// `width_hint` seeds the calendar queue's day width.
  SimTransport(const LatencyModel& latency, rng::DefaultEngine latency_engine,
               SimTime width_hint)
      : latency_(latency),
        gen_(std::move(latency_engine)),
        queue_(width_hint) {}

  /// One link traversal to m.at: sample a delay, schedule the delivery.
  /// An op's first hop costs nothing: the client is the first node on
  /// its own route.
  void send(const Message& m) {
    if (m.hops == 0 && m.at == m.client && protocol::is_routed(m.type)) {
      deliver_local(m);
      return;
    }
    links_.count(m.type);
    queue_.push(now_ + latency_.sample(gen_), m);
  }

  /// Zero-delay delivery at the current time.
  void deliver_local(const Message& m) { queue_.push(now_, m); }

  Timer schedule(std::uint64_t /*delay_ms*/, const Message& /*m*/) noexcept {
    return {};
  }
  void cancel(Timer /*t*/) noexcept {}
  [[nodiscard]] bool armed(Timer /*t*/) const noexcept { return false; }

  /// Simulated time of the event being executed.
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// The same instant on the trace's microsecond scale: one simulated
  /// time unit renders as one millisecond.
  [[nodiscard]] double now_us() const noexcept { return now_ * 1000.0; }

  /// Drive loop only: whether anything is scheduled, and the next event,
  /// whose time becomes the clock.
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  MessageQueue::Event pop() {
    MessageQueue::Event e = queue_.pop();
    now_ = e.time;
    return e;
  }

  [[nodiscard]] const LinkCounters& links() const noexcept { return links_; }

 private:
  LatencyModel latency_;
  rng::DefaultEngine gen_;
  MessageQueue queue_;
  LinkCounters links_;
  SimTime now_ = 0.0;
};

}  // namespace geochoice::net
