// Tests for the discrete-event network simulator (net/): deterministic
// event ordering, golden-trace reproducibility, Chord hop-count
// validation, and the zero-latency collapse onto core::run_process.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/process.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "sim/scenario.hpp"

namespace gn = geochoice::net;
namespace gc = geochoice::core;
namespace gd = geochoice::dht;
namespace gr = geochoice::rng;
namespace gs = geochoice::sim;

// ---------------------------------------------------------------- queue

TEST(EventQueue, OrdersByTimeThenScheduleOrder) {
  gn::EventQueue<int> q;
  q.push(2.0, 1);
  q.push(1.0, 2);
  q.push(1.0, 3);  // same time as id 2: must pop after it (FIFO tie order)
  q.push(0.5, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{4, 2, 3, 1}));
}

TEST(EventQueue, SequenceNumbersAreAssignedInPushOrder) {
  gn::EventQueue<char> q;
  q.push(5.0, 'a');
  q.push(1.0, 'b');
  EXPECT_EQ(q.scheduled(), 2u);
  const auto first = q.pop();
  EXPECT_EQ(first.payload, 'b');
  EXPECT_EQ(first.seq, 1u);
}

// -------------------------------------------------------------- latency

TEST(LatencyModel, ConstantConsumesNoRandomness) {
  gr::DefaultEngine a(1), b(1);
  const auto model = gn::LatencyModel::constant(3.5);
  EXPECT_DOUBLE_EQ(model.sample(a), 3.5);
  EXPECT_EQ(a(), b());  // engine untouched
}

TEST(LatencyModel, UniformStaysInRange) {
  gr::DefaultEngine gen(2);
  const auto model = gn::LatencyModel::uniform(1.0, 2.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = model.sample(gen);
    EXPECT_GE(x, 1.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(LatencyModel, LognormalIsPositive) {
  gr::DefaultEngine gen(3);
  const auto model = gn::LatencyModel::lognormal(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(model.sample(gen), 0.0);
}

TEST(LatencyModel, SampleConsumesFixedWordsPerKind) {
  // Every delay is a fixed number of engine words pushed through one
  // formula: 0 (constant), 1 (uniform), 2 in order (lognormal's Box–Muller
  // pair, clamped at the floor). The golden trace hashes depend on this
  // draw order, so it is spelled out here word by word.
  const auto u01 = [](std::uint64_t w) {
    return static_cast<double>(w >> 11) * 0x1.0p-53;
  };
  const gn::LatencyModel models[] = {
      gn::LatencyModel::constant(2.0),
      gn::LatencyModel::uniform(1.0, 3.0),
      gn::LatencyModel::lognormal(0.0, 1.0, 0.5),
  };
  int clamped = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& model = models[k];
    auto gen = gr::make_stream(99, k, gr::StreamPurpose::kNetLatency);
    auto words = gr::make_stream(99, k, gr::StreamPurpose::kNetLatency);
    for (int i = 0; i < 256; ++i) {
      double expected = model.a;
      if (model.kind == gn::LatencyKind::kUniform) {
        expected = model.a + (model.b - model.a) * u01(words());
      } else if (model.kind == gn::LatencyKind::kLognormal) {
        const double u1 = u01(words());
        const double u2 = u01(words());
        const double z = std::sqrt(-2.0 * std::log1p(-u1)) *
                         std::cos(6.283185307179586476925286766559 * u2);
        expected = std::max(model.floor, std::exp(model.a + model.b * z));
        if (expected == model.floor) ++clamped;
      }
      ASSERT_EQ(model.sample(gen), expected) << "kind " << k << " draw " << i;
    }
    EXPECT_EQ(gen(), words()) << "kind " << k << ": engines diverged";
  }
  EXPECT_GT(clamped, 0);  // the floor actually bit
}

TEST(LatencyModel, Validation) {
  EXPECT_THROW(gn::LatencyModel::constant(-1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(gn::LatencyModel::uniform(2.0, 1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(gn::LatencyModel::lognormal(0.0, -0.1).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(gn::LatencyModel::zero().validate());
  EXPECT_EQ(gn::latency_kind_from_string("lognormal"),
            gn::LatencyKind::kLognormal);
  EXPECT_THROW(gn::latency_kind_from_string("warp"), std::invalid_argument);
}

// ---------------------------------------------------------------- chord

TEST(ChordRouting, NextHopIterationMatchesLookup) {
  gr::DefaultEngine gen(11);
  auto ring = gd::ChordRing::random(300, gen);
  ring.build_fingers();
  for (int i = 0; i < 200; ++i) {
    const auto start =
        static_cast<std::uint32_t>(gr::uniform_below(gen, ring.node_count()));
    const double key = gr::uniform01(gen);
    const auto ref = ring.lookup(start, key);
    std::uint32_t cur = start, hops = 0;
    while (cur != ref.owner && hops <= ring.node_count()) {
      cur = ring.next_hop(cur, key);
      ++hops;
    }
    EXPECT_EQ(cur, ref.owner);
    EXPECT_EQ(hops, ref.hops);
  }
}

// ------------------------------------------------------------ transport

TEST(SimTransport, FirstHopIsLocalAndFree) {
  // An op's first hop — a routed request still at its client — is a
  // zero-delay delivery that counts no link and draws no delay; every
  // other send is one link with one drawn delay, a reply to a client that
  // owns the key included.
  const auto model = gn::LatencyModel::uniform(0.5, 1.5);
  gn::SimTransport t(model,
                     gr::make_stream(1, 0, gr::StreamPurpose::kNetLatency),
                     1.0);
  auto delays = gr::make_stream(1, 0, gr::StreamPurpose::kNetLatency);

  gn::Message probe;
  probe.type = gn::MsgType::kProbe;
  probe.at = 3;
  probe.client = 3;
  t.send(probe);
  EXPECT_EQ(t.links().total, 0u);
  EXPECT_EQ(t.pop().time, 0.0);

  gn::Message forwarded = probe;
  forwarded.hops = 1;
  forwarded.at = 5;
  t.send(forwarded);
  gn::Message reply = probe;
  reply.type = gn::MsgType::kProbeReply;
  t.send(reply);
  EXPECT_EQ(t.links().total, 2u);
  const double first = model.sample(delays);
  const double second = model.sample(delays);
  const auto a = t.pop();
  const auto b = t.pop();
  EXPECT_EQ(a.time, std::min(first, second));
  EXPECT_EQ(b.time, std::max(first, second));
  EXPECT_TRUE(t.idle());
}

// ----------------------------------------------------------- simulator

TEST(NetSim, NodeObjectsStaySmall) {
  // The DES hosts one NodeLogic per ring node; until a store phase runs, a
  // node is its load, its stale tally and an empty store pointer. Larger
  // node objects crowd the finger tables out of cache on every hop.
  EXPECT_LE(sizeof(gn::NodeLogic<gn::SimTransport>), 16u);
}

TEST(NetSim, RejectsBadConfigs) {
  gn::NetConfig cfg;
  cfg.nodes = 16;
  auto ring = gn::NetSimulator::make_ring(cfg);

  gn::NetConfig bad = cfg;
  bad.choices = 0;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);
  bad.choices = gn::kMaxChoices + 1;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  bad = cfg;
  bad.window = 0;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  bad = cfg;
  bad.tie = gc::TieBreak::kSmallerRegion;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  gr::DefaultEngine gen(1);
  const auto bare = gd::ChordRing::random(16, gen);  // no fingers
  EXPECT_THROW(gn::NetSimulator(bare, cfg), std::invalid_argument);
}

TEST(NetSim, RunIsSingleShot) {
  gn::NetConfig cfg;
  cfg.nodes = 16;
  cfg.keys = 4;
  const auto ring = gn::NetSimulator::make_ring(cfg);
  gn::NetSimulator sim(ring, cfg);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

namespace {

gn::NetConfig mixed_config() {
  gn::NetConfig cfg;
  cfg.nodes = 128;
  cfg.keys = 512;
  cfg.choices = 2;
  cfg.window = 8;
  cfg.latency = gn::LatencyModel::uniform(0.5, 1.5);
  cfg.lookups = 256;
  cfg.seed = 0xdeadbeefcafef00dULL;
  return cfg;
}

/// mixed_config() as a smaller multi-trial front-door spec.
gs::Scenario mixed_scenario() {
  const auto cfg = mixed_config();
  gs::Scenario sc;
  sc.model = gs::ExecModel::kWire;
  sc.space = gs::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 128;
  sc.num_choices = cfg.choices;
  sc.window = cfg.window;
  sc.latency = cfg.latency;
  sc.lookups = 64;
  sc.trials = 8;
  sc.seed = cfg.seed;
  return sc;
}

}  // namespace

TEST(NetSim, IdenticalTraceAcrossRuns) {
  auto cfg = mixed_config();
  cfg.collect_trace = true;
  const auto ring = gn::NetSimulator::make_ring(cfg);
  gn::NetSimulator a(ring, cfg), b(ring, cfg);
  const auto ma = a.run();
  const auto mb = b.run();
  ASSERT_FALSE(a.trace().empty());
  EXPECT_EQ(a.trace().size(), b.trace().size());
  EXPECT_TRUE(a.trace() == b.trace());
  EXPECT_EQ(ma.trace_hash, mb.trace_hash);
  EXPECT_EQ(ma.loads, mb.loads);
  EXPECT_EQ(ma.events, mb.events);
  EXPECT_DOUBLE_EQ(ma.end_time, mb.end_time);
  EXPECT_DOUBLE_EQ(ma.lookup_latency_q.value(2), mb.lookup_latency_q.value(2));
}

TEST(NetSim, GoldenTraceHash) {
  // Pins the full event trace of a fixed (seed, config) across platforms
  // and compilers: any change to message ordering, RNG consumption, or
  // routing logic fails here loudly. Uniform latency keeps the arithmetic
  // to IEEE mul/add (no libm), so the hash is bit-stable.
  const auto m = gn::NetSimulator::simulate(mixed_config());
  EXPECT_EQ(m.trace_hash, 0x59434247df5e10ecULL);
}

TEST(NetSim, GoldenTraceHashUnchangedWithObsAndTracing) {
  // The observability contract, enforced: metrics fully enabled AND a
  // lifecycle recorder attached must not move the golden pin by one bit
  // (obs consumes no RNG and never reorders events).
  namespace obs = geochoice::obs;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  obs::TraceRecorder rec;
  auto cfg = mixed_config();
  cfg.trace = &rec;
  const auto m = gn::NetSimulator::simulate(cfg);
  obs::set_enabled(false);
  EXPECT_EQ(m.trace_hash, 0x59434247df5e10ecULL);
  if (obs::compiled_in()) {
    EXPECT_GT(rec.size(), 0u);  // the recorder really saw the run
    bool counted_events = false;
    for (const auto& metric : obs::Registry::global().snapshot()) {
      if (metric.name == "net.events" && metric.count == m.events) {
        counted_events = true;
      }
    }
    EXPECT_TRUE(counted_events);
  }
}

namespace {

gn::NetConfig store_config() {
  auto cfg = mixed_config();
  // The store phase appends per-key kPut writes and Zipf kGet reads to the
  // same trace. alpha = 0 here because std::pow(x, 0.0) == 1.0 is an
  // IEEE/C special case: the weights — and with them the key draws and
  // the pinned hash — stay bit-stable across libm implementations.
  // (Skewed alphas are exercised by the serving bench, whose perf gates
  // are same-run ratios.)
  cfg.store_gets = 256;
  cfg.store_zipf_alpha = 0.0;
  return cfg;
}

}  // namespace

TEST(NetSim, StoreWorkloadGoldenTraceHash) {
  // The store-enabled run has its own pin: one put per placed key, every
  // get answered from the recorded owner, zero misses — bit-reproducible
  // from (seed, config) like every other trace.
  const auto m = gn::NetSimulator::simulate(store_config());
  EXPECT_EQ(m.puts, store_config().insert_count());
  EXPECT_EQ(m.gets, 256u);
  EXPECT_EQ(m.get_misses, 0u);
  EXPECT_GT(m.get_latency.count(), 0u);
  EXPECT_EQ(m.trace_hash, 0xb5e9d7a646c23c91ULL);
}

namespace {

/// FNV-1a fold of every NetMetrics field except trace_hash: counters,
/// per-type link tallies, final loads, the placement map, the end time,
/// and the exact bits of every running statistic and P² quantile. The
/// trace hash folds message fields only, so this pin is what catches a
/// tally (latency, hops, staleness) computed differently by the handlers.
std::uint64_t metrics_fingerprint(const gn::NetMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
  };
  const auto fold_double = [&](double x) {
    fold(std::bit_cast<std::uint64_t>(x));
  };
  const auto fold_stats = [&](const geochoice::stats::RunningStats& s) {
    fold(s.count());
    fold_double(s.mean());
    fold_double(s.variance());
    fold_double(s.min());
    fold_double(s.max());
  };
  const auto fold_quantiles = [&](const geochoice::stats::P2QuantileSet& q) {
    fold(q.count());
    for (std::size_t i = 0; i < q.size(); ++i) fold_double(q.value(i));
  };
  fold(m.events);
  fold(m.links);
  for (const std::uint64_t c : m.links_by_type) fold(c);
  fold(m.probe_hops);
  fold(m.stale_reads);
  fold(m.inserts);
  fold(m.lookups);
  fold(m.puts);
  fold(m.gets);
  fold(m.get_misses);
  fold(m.max_load);
  fold(m.loads.size());
  for (const std::uint32_t l : m.loads) fold(l);
  fold(m.placements.size());
  for (const std::uint32_t p : m.placements) fold(p);
  fold_stats(m.lookup_hops);
  fold_stats(m.insert_latency);
  fold_stats(m.lookup_latency);
  fold_stats(m.get_latency);
  fold_quantiles(m.lookup_hops_q);
  fold_quantiles(m.insert_latency_q);
  fold_quantiles(m.lookup_latency_q);
  fold_quantiles(m.get_latency_q);
  fold_double(m.end_time);
  return h;
}

}  // namespace

TEST(NetSim, GoldenMetricsFingerprint) {
  // Every NetMetrics field, pinned bit for bit for the two golden
  // configs: the handlers' tallies must not drift even where the event
  // trace (and so its hash) stays the same.
  const auto mixed = gn::NetSimulator::simulate(mixed_config());
  EXPECT_EQ(mixed.trace_hash, 0x59434247df5e10ecULL);
  EXPECT_EQ(metrics_fingerprint(mixed), 0x782fc155dddfb9dcULL);
  const auto store = gn::NetSimulator::simulate(store_config());
  EXPECT_EQ(store.trace_hash, 0xb5e9d7a646c23c91ULL);
  EXPECT_EQ(metrics_fingerprint(store), 0xbe6bd312ef11ea0dULL);
}

TEST(NetSim, StoreWorkloadRecordsPlacements) {
  // metrics.placements must agree with the per-node load tallies: each
  // node's final load is exactly the number of keys placed on it.
  const auto m = gn::NetSimulator::simulate(store_config());
  std::vector<std::uint32_t> by_owner(m.loads.size(), 0);
  for (const std::uint32_t owner : m.placements) ++by_owner[owner];
  EXPECT_EQ(by_owner, m.loads);
}

TEST(NetSim, ScenarioIsThreadCountInvariant) {
  auto sc = mixed_scenario();
  sc.threads = 1;
  const auto a = gs::run(sc);
  sc.threads = 4;
  const auto b = gs::run(sc);
  EXPECT_TRUE(a.max_load == b.max_load);
  EXPECT_EQ(a.wire.mean_lookup_hops, b.wire.mean_lookup_hops);
  EXPECT_EQ(a.wire.lookup_latency_p99, b.wire.lookup_latency_p99);
  EXPECT_EQ(a.wire.insert_latency_p50, b.wire.insert_latency_p50);
  EXPECT_EQ(a.wire.links_per_insert, b.wire.links_per_insert);
  EXPECT_EQ(a.wire.stale_fraction, b.wire.stale_fraction);
  EXPECT_EQ(a.wire.mean_end_time, b.wire.mean_end_time);
}

TEST(NetSim, MessageConservation) {
  const auto cfg = mixed_config();
  const auto m = gn::NetSimulator::simulate(cfg);
  using T = gn::MsgType;
  auto by = [&](T t) {
    return m.links_by_type[static_cast<std::size_t>(t)];
  };
  EXPECT_EQ(m.inserts, cfg.keys);
  EXPECT_EQ(m.lookups, cfg.lookups);
  // Every probe eventually produces exactly one reply; every insert one
  // place + one ack; every lookup one reply.
  EXPECT_EQ(by(T::kProbeReply),
            cfg.keys * static_cast<std::uint64_t>(cfg.choices));
  EXPECT_EQ(by(T::kPlace), cfg.keys);
  EXPECT_EQ(by(T::kPlaceAck), cfg.keys);
  EXPECT_EQ(by(T::kLookupReply), cfg.lookups);
  const auto total = std::accumulate(m.links_by_type.begin(),
                                     m.links_by_type.end(), std::uint64_t{0});
  EXPECT_EQ(total, m.links);
  // Key conservation: every insert landed on exactly one node.
  EXPECT_EQ(std::accumulate(m.loads.begin(), m.loads.end(), std::uint64_t{0}),
            cfg.keys);
  EXPECT_EQ(m.insert_latency.count(), cfg.keys);
  EXPECT_EQ(m.lookup_latency.count(), cfg.lookups);
}

TEST(NetSim, SerializedWindowNeverReadsStale) {
  // With one operation in flight the load replies cannot be invalidated by
  // concurrent placements, at any latency.
  auto cfg = mixed_config();
  cfg.window = 1;
  cfg.latency = gn::LatencyModel::lognormal(0.0, 1.0);
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_EQ(m.stale_reads, 0u);
}

TEST(NetSim, WideWindowReadsGoStale) {
  auto cfg = mixed_config();
  cfg.nodes = 64;
  cfg.keys = 2048;
  cfg.window = 64;
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_GT(m.stale_reads, 0u);
}

// ---------------------------------------------------- paper validation

TEST(NetSim, MeanLookupHopsIsHalfLogN) {
  // Chord's mean path length is ~ 1/2 * log2(n); the acceptance gate asks
  // for 10%, measured here at three ring sizes.
  for (const std::size_t n : {std::size_t{1} << 8, std::size_t{1} << 10,
                              std::size_t{1} << 12}) {
    gn::NetConfig cfg;
    cfg.nodes = n;
    cfg.keys = 1;  // hop statistics want the routing graph, not the load
    cfg.lookups = 8000;
    cfg.window = 8;
    const auto m = gn::NetSimulator::simulate(cfg);
    const double expected = 0.5 * std::log2(static_cast<double>(n));
    EXPECT_NEAR(m.lookup_hops.mean(), expected, 0.1 * expected)
        << "n = " << n;
  }
}

TEST(NetSim, ZeroLatencyReproducesRunProcessExactly) {
  // latency -> 0 with a serialized window collapses the message-level
  // two-choice insertion onto the sequential allocation process: same
  // candidate substream, same successor ownership (ChordSuccessorSpace),
  // same tie semantics => bit-identical loads, not merely the same
  // distribution.
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      gn::NetConfig cfg;
      cfg.nodes = 512;
      cfg.keys = 512;
      cfg.choices = 2;
      cfg.window = 1;
      cfg.tie = tie;
      cfg.latency = gn::LatencyModel::zero();
      cfg.trial = trial;
      const auto ring = gn::NetSimulator::make_ring(cfg);
      gn::NetSimulator sim(ring, cfg);
      const auto m = sim.run();

      const gn::ChordSuccessorSpace space(ring);
      gc::ProcessOptions opt;
      opt.num_balls = cfg.keys;
      opt.num_choices = cfg.choices;
      opt.tie = tie;
      auto gen = gr::make_stream(cfg.seed, cfg.trial,
                                 gr::StreamPurpose::kBallChoices);
      const auto ref = gc::run_process(space, opt, gen);
      EXPECT_EQ(m.loads, ref.loads);
      EXPECT_EQ(m.max_load, ref.max_load);
      EXPECT_EQ(m.stale_reads, 0u);
    }
  }
}

TEST(NetSim, ZeroLatencyRandomTieMatchesRunProcessDistribution) {
  // kRandom draws ties from a dedicated substream, so the match is in
  // distribution rather than bitwise. Fixed seeds keep this deterministic.
  constexpr int kTrials = 64;
  double sim_sum = 0.0, ref_sum = 0.0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    gn::NetConfig cfg;
    cfg.nodes = 256;
    cfg.keys = 256;
    cfg.window = 1;
    cfg.tie = gc::TieBreak::kRandom;
    cfg.latency = gn::LatencyModel::zero();
    cfg.trial = trial;
    const auto ring = gn::NetSimulator::make_ring(cfg);
    gn::NetSimulator sim(ring, cfg);
    sim_sum += sim.run().max_load;

    const gn::ChordSuccessorSpace space(ring);
    gc::ProcessOptions opt;
    opt.num_balls = cfg.keys;
    opt.num_choices = cfg.choices;
    opt.tie = gc::TieBreak::kRandom;
    auto gen = gr::make_stream(cfg.seed, cfg.trial,
                               gr::StreamPurpose::kBallChoices);
    ref_sum += gc::run_process(space, opt, gen).max_load;
  }
  EXPECT_NEAR(sim_sum / kTrials, ref_sum / kTrials, 0.25);
}

TEST(NetSim, ChordSuccessorSpaceOwnsSuccessorArcs) {
  gr::DefaultEngine gen(21);
  auto ring = gd::ChordRing::random(40, gen);
  ring.build_fingers();
  const gn::ChordSuccessorSpace space(ring);
  EXPECT_EQ(space.bin_count(), 40u);
  double measure = 0.0;
  for (std::uint32_t i = 0; i < 40; ++i) {
    measure += space.region_measure(i);
  }
  EXPECT_NEAR(measure, 1.0, 1e-12);
  for (int i = 0; i < 200; ++i) {
    const double loc = gr::uniform01(gen);
    EXPECT_EQ(space.owner(loc), ring.successor(loc));
  }
}

TEST(NetSim, RunSummaryMentionsWireMetrics) {
  auto sc = mixed_scenario();
  sc.trials = 4;
  sc.threads = 1;
  const auto text = gs::render_run_summary(gs::run(sc));
  EXPECT_NE(text.find("model=wire"), std::string::npos);
  EXPECT_NE(text.find("lookup hops"), std::string::npos);
  EXPECT_NE(text.find("links/insert"), std::string::npos);
  EXPECT_NE(text.find("stale"), std::string::npos);
  EXPECT_NE(text.find("distribution of max load"), std::string::npos);
}
