// test_udp_cluster.cpp — the differential test the Transport seam
// exists for: a real loopback UDP cluster vs the deterministic
// simulator, same workload, identical placement decisions.
//
// With window = 1 and a deterministic tie-break, a placement depends
// only on the candidate-key stream (kBallChoices) and the serial load
// evolution — never on timing, routing paths, or client identity. The
// simulator (SimTransport, zero latency) and the 3-node in-process
// UdpTransport cluster both draw candidates from the same substream and
// derive the same ring, so their placement sequences must match
// bit-for-bit even though the cluster's datagrams really cross the
// kernel's loopback path.
//
// Sandboxes without socket permission skip (std::system_error from
// socket/bind), so the suite stays green everywhere; CI runs the real
// thing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <system_error>
#include <vector>

#include "net/cluster.hpp"
#include "net/udp_transport.hpp"
#include "net/simulator.hpp"
#include "obs/trace.hpp"

namespace {

using namespace geochoice;

constexpr std::uint64_t kSeed = 0x636c7573746572ULL;  // "cluster"

/// Placement sequence of the simulator oracle: owner of insert op i,
/// read off the executed-event trace's kPlace events.
std::vector<std::uint32_t> oracle_placements(const net::NetConfig& cfg,
                                             net::NetMetrics* out = nullptr) {
  net::NetConfig traced = cfg;
  traced.collect_trace = true;
  const auto ring = net::NetSimulator::make_ring(traced);
  net::NetSimulator sim(ring, traced);
  net::NetMetrics metrics = sim.run();
  std::vector<std::uint32_t> placements(traced.insert_count(), 0);
  for (const net::TraceEvent& e : sim.trace()) {
    if (e.msg.type == net::MsgType::kPlace) {
      placements[e.msg.op] = e.msg.at;
    }
  }
  if (out != nullptr) *out = std::move(metrics);
  return placements;
}

net::ClusterResult run_cluster_or_skip(const net::ClusterConfig& cfg) {
  try {
    return net::run_loopback_cluster(cfg);
  } catch (const std::system_error& e) {
    // No socket permission in this sandbox: nothing to test against.
    []() { GTEST_SKIP() << "loopback sockets unavailable"; }();
    throw;
  }
}

TEST(UdpCluster, PlacementsMatchTheSimulatorOracle) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 96;
  ccfg.driver.choices = 2;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kFirstChoice;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 0;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;  // skipped above
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kFirstChoice;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 0;
  net::NetMetrics oracle;
  const auto expected = oracle_placements(scfg, &oracle);

  ASSERT_EQ(real.report.inserts, ccfg.driver.inserts);
  EXPECT_EQ(real.report.placements, expected);
  EXPECT_EQ(real.report.loads, oracle.loads);
  EXPECT_EQ(real.report.max_load, oracle.max_load);
  EXPECT_EQ(real.malformed, 0u);
  EXPECT_EQ(real.send_errors, 0u);
}

TEST(UdpCluster, LowestIndexTieAlsoMatches) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 5;
  ccfg.driver.inserts = 60;
  ccfg.driver.choices = 3;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kLowestIndex;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 7;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kLowestIndex;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 7;
  EXPECT_EQ(real.report.placements, oracle_placements(scfg));
}

TEST(UdpCluster, CensusLoadsAccountForEveryInsert) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.driver.inserts = 40;
  ccfg.driver.lookups = 16;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 1;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  ASSERT_EQ(real.report.loads.size(), ccfg.nodes);
  const std::uint64_t placed = std::accumulate(
      real.report.loads.begin(), real.report.loads.end(), std::uint64_t{0});
  EXPECT_EQ(placed, ccfg.driver.inserts);  // at-most-once held
  EXPECT_EQ(real.report.lookups, ccfg.driver.lookups);
  EXPECT_EQ(real.report.insert_latency_us_q.count(), ccfg.driver.inserts);
  EXPECT_GT(real.datagrams, 0u);
  // Every op's first hop leaves the client on node 0 addressed to node 0:
  // each insert's probes and each lookup stay in-process.
  EXPECT_GE(real.local_deliveries,
            static_cast<std::uint64_t>(ccfg.driver.choices) *
                    ccfg.driver.inserts +
                ccfg.driver.lookups);
}

TEST(UdpCluster, StoreReadsServeTheSameValuesAsTheSimulator) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 48;
  ccfg.driver.choices = 2;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kFirstChoice;
  ccfg.driver.store_gets = 64;
  ccfg.driver.store_zipf_alpha = 0.9;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 3;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kFirstChoice;
  scfg.store_gets = ccfg.driver.store_gets;
  scfg.store_zipf_alpha = ccfg.driver.store_zipf_alpha;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 3;
  net::NetMetrics oracle;
  const auto expected = oracle_placements(scfg, &oracle);

  // Same placements, so the same owners served the same keys; the driver
  // already threw if any get returned bytes != protocol::store_value(key).
  EXPECT_EQ(real.report.placements, expected);
  EXPECT_EQ(real.report.puts, ccfg.driver.inserts);
  EXPECT_EQ(real.report.gets, ccfg.driver.store_gets);
  EXPECT_EQ(real.report.get_misses, 0u);
  EXPECT_EQ(oracle.get_misses, 0u);
  EXPECT_EQ(real.report.puts, oracle.puts);
  EXPECT_EQ(real.report.gets, oracle.gets);
  // Every inserted key holds exactly one value somewhere in the cluster,
  // and the census reads the same count back over the wire.
  EXPECT_EQ(real.keys_stored, ccfg.driver.inserts);
  EXPECT_EQ(real.report.keys_stored, real.keys_stored);
  EXPECT_EQ(real.report.keys_stored, real.report.puts);
  EXPECT_EQ(real.report.get_latency_us_q.count(), ccfg.driver.store_gets);
  EXPECT_EQ(real.malformed, 0u);
}

TEST(UdpCluster, TraceRecorderSeesRealDatagramLifecycles) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 24;
  ccfg.driver.lookups = 8;
  ccfg.driver.seed = kSeed;
  obs::TraceRecorder rec;
  ccfg.driver.trace = &rec;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }
  ASSERT_EQ(real.report.inserts, ccfg.driver.inserts);
  if (!obs::compiled_in()) {
    EXPECT_EQ(rec.size(), 0u);
    return;
  }
  // Attaching the recorder changes nothing about the run, and it must
  // have seen at least every issue (scheduled) and completion (delivered)
  // the driver observed. (Timestamps are per-transport clocks — each node
  // binds at a slightly different instant — so only non-negativity is
  // pinnable across the shared ring.)
  std::uint64_t scheduled = 0, delivered = 0;
  for (const auto& r : rec.records()) {
    scheduled += r.phase == obs::TracePhase::kScheduled ? 1 : 0;
    delivered += r.phase == obs::TracePhase::kDelivered ? 1 : 0;
    EXPECT_GE(r.ts_us, 0.0);
  }
  EXPECT_GE(scheduled, ccfg.driver.inserts + ccfg.driver.lookups);
  EXPECT_GE(delivered, ccfg.driver.inserts + ccfg.driver.lookups);
}

TEST(UdpCluster, SingleNodeClusterSendsNoDatagrams) {
  // One node is its own client, router and owner: every message is
  // addressed to itself, so nothing crosses the kernel.
  net::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.driver.inserts = 8;
  ccfg.driver.lookups = 4;
  ccfg.driver.store_gets = 4;
  ccfg.driver.seed = kSeed;

  net::ClusterResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }
  EXPECT_EQ(real.datagrams, 0u);
  ASSERT_EQ(real.report.loads.size(), 1u);
  EXPECT_EQ(real.report.loads[0], ccfg.driver.inserts);
  EXPECT_EQ(real.report.max_load, ccfg.driver.inserts);
  EXPECT_EQ(real.report.lookups, ccfg.driver.lookups);
  EXPECT_EQ(real.report.gets, ccfg.driver.store_gets);
  EXPECT_EQ(real.report.get_misses, 0u);
  EXPECT_EQ(real.keys_stored, ccfg.driver.inserts);
  EXPECT_GE(real.local_deliveries,
            static_cast<std::uint64_t>(ccfg.driver.choices) *
                    ccfg.driver.inserts +
                ccfg.driver.lookups);
}

TEST(UdpTransport, SelfAddressedSendStaysInProcess) {
  std::unique_ptr<net::UdpTransport> t;
  try {
    t = std::make_unique<net::UdpTransport>(1, 0);
  } catch (const std::system_error&) {
    GTEST_SKIP() << "loopback sockets unavailable";
  }
  // Node 1's table points both ids at its own socket, so a datagram to
  // node 0 lands back here: the control that the socket is live.
  t->set_peers({net::Endpoint{0x7f000001u, t->port()},
                net::Endpoint{0x7f000001u, t->port()}});
  net::Message m;
  m.type = net::MsgType::kProbe;
  m.at = 1;
  m.op = 42;
  t->send(m);
  EXPECT_EQ(t->links().total, 0u);
  EXPECT_EQ(t->local_deliveries(), 1u);

  std::vector<std::uint64_t> seen;
  const auto on_message = [&](const net::Message& got) {
    seen.push_back(got.op);
  };
  const auto no_timer = [](const net::Message&) {};
  t->poll(0, on_message, no_timer);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 42u);
  // Exactly once: the message was in-process only, the socket is empty.
  t->poll(20, on_message, no_timer);
  EXPECT_EQ(seen.size(), 1u);

  m.at = 0;
  m.op = 7;
  t->send(m);
  EXPECT_EQ(t->links().total, 1u);
  EXPECT_EQ(t->local_deliveries(), 1u);
  for (int i = 0; i < 50 && seen.size() < 2; ++i) {
    t->poll(20, on_message, no_timer);
  }
  ASSERT_EQ(seen.size(), 2u);  // the datagram did cross the socket
  EXPECT_EQ(seen[1], 7u);
  EXPECT_EQ(t->malformed(), 0u);
  EXPECT_EQ(t->send_errors(), 0u);
}

TEST(UdpTransport, RefusedSendsAreCounted) {
  // The limited broadcast address needs SO_BROADCAST, which the transport
  // never sets: the kernel refuses the datagram with EACCES every time.
  // Loopback to the transport's own port succeeds. The transport is node
  // 2, so sends to nodes 0 and 1 are datagrams, not self-deliveries.
  std::unique_ptr<net::UdpTransport> t;
  try {
    t = std::make_unique<net::UdpTransport>(2, 0);
  } catch (const std::system_error&) {
    GTEST_SKIP() << "loopback sockets unavailable";
  }
  t->set_peers({net::Endpoint{0xffffffffu, 9},
                net::Endpoint{0x7f000001u, t->port()},
                net::Endpoint{0x7f000001u, t->port()}});
  net::Message m;
  m.at = 0;
  t->send(m);
  t->send(m);
  EXPECT_EQ(t->send_errors(), 2u);
  m.at = 1;
  t->send(m);
  EXPECT_EQ(t->send_errors(), 2u);
  EXPECT_EQ(t->links().total, 3u);  // attempts, refused ones included
  EXPECT_EQ(t->local_deliveries(), 0u);
}

}  // namespace
