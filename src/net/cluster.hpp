// cluster.hpp — an in-process localhost UDP cluster.
//
// N UdpTransports bound to ephemeral 127.0.0.1 ports, one NodeLogic
// each, a ClientDriver on node 0, all pumped from the calling thread
// until the workload (and the closing load census) completes. Every
// message between two nodes is a datagram across the kernel's loopback
// path — real sockets, real epoll, real encode/decode — which is exactly
// what the differential test needs: the same workload under SimTransport
// must produce the same placements even though these messages genuinely
// left the process's memory. A message a node sends to itself (each op's
// first hop from the client on node 0) stays in-process, as it does in
// the simulator, and is counted in local_deliveries, not datagrams.
//
// The multi-process version of the same ring is the dht_node binary
// (src/service/dht_node.cpp); this harness exists so tests and
// sim::Scenario runs can stand a cluster up without forking.
#pragma once

#include <cstdint>

#include "net/node.hpp"

namespace geochoice::net {

struct ClusterConfig {
  /// Ring size; the ring derives from (driver.seed, driver.trial) exactly
  /// as NetSimulator::make_ring does.
  std::size_t nodes = 8;
  DriverConfig driver;
  /// Hard wall-clock bound; a wedged socket loop throws instead of
  /// hanging the caller.
  std::uint64_t timeout_ms = 30'000;
};

struct ClusterResult {
  DriverReport report;
  /// Datagrams sent across all nodes' transports.
  std::uint64_t datagrams = 0;
  /// Sends a node addressed to itself, handed over in-process rather than
  /// as datagrams; datagrams + local_deliveries counts every send.
  std::uint64_t local_deliveries = 0;
  /// Received frames that failed wire::decode (should be zero).
  std::uint64_t malformed = 0;
  /// Datagrams the kernel refused to send, summed over every transport
  /// (should be zero).
  std::uint64_t send_errors = 0;
  /// Placements the owners observed landing on stale load information.
  std::uint64_t stale_reads = 0;
  /// Distinct keys holding a value across all node stores after the run
  /// (== inserts when the store phase ran, 0 otherwise).
  std::uint64_t keys_stored = 0;
  /// Wall-clock of the whole run.
  std::uint64_t elapsed_ms = 0;
};

/// Stand up the cluster, run the driver's workload to completion, tear
/// everything down. Throws std::system_error if sockets are unavailable
/// (sandboxes) and std::runtime_error on timeout.
[[nodiscard]] ClusterResult run_loopback_cluster(const ClusterConfig& cfg);

}  // namespace geochoice::net
