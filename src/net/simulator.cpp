#include "net/simulator.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "rng/streams.hpp"

namespace geochoice::net {

namespace {

/// FNV-1a fold of one 64-bit word into the trace fingerprint.
void fold(std::uint64_t& h, std::uint64_t w) noexcept {
  h ^= w;
  h *= 0x100000001b3ULL;
}

std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

/// Calendar-queue day-width hint: the latency scale spread over the
/// messages a full window keeps in flight. Only a starting point — the
/// queue re-derives the width from the live schedule as it resizes.
SimTime queue_width_hint(const NetConfig& cfg) noexcept {
  const double inflight =
      static_cast<double>(cfg.window) * static_cast<double>(cfg.choices);
  return cfg.latency.mean() / (inflight > 1.0 ? inflight : 1.0);
}

/// Validate what the driver does not check itself, and derive its
/// configuration.
DriverConfig driver_config(const dht::ChordRing& ring, const NetConfig& cfg) {
  if (!ring.has_fingers()) {
    throw std::invalid_argument(
        "NetSimulator: ring needs build_fingers() for message routing");
  }
  cfg.latency.validate();
  DriverConfig d;
  d.inserts = cfg.insert_count();
  d.lookups = cfg.lookups;
  d.choices = cfg.choices;
  d.window = cfg.window;
  d.tie = cfg.tie;
  d.seed = cfg.seed;
  d.trial = cfg.trial;
  d.store_gets = cfg.store_gets;
  d.store_zipf_alpha = cfg.store_zipf_alpha;
  d.trace = cfg.trace;
  return d;
}

}  // namespace

NetSimulator::NetSimulator(const dht::ChordRing& ring, const NetConfig& cfg)
    : cfg_(cfg),
      transport_(cfg.latency,
                 rng::make_stream(cfg.seed, cfg.trial,
                                  rng::StreamPurpose::kNetLatency),
                 queue_width_hint(cfg)),
      site_{&ring, &transport_, cfg.trace, 0},
      driver_(ring, driver_config(ring, cfg), transport_) {
  // After the driver: its constructor rejects a bad d, window or tie
  // before n node objects are built.
  nodes_.resize(ring.node_count());
}

dht::ChordRing NetSimulator::make_ring(const NetConfig& cfg) {
  auto gen = rng::make_stream(cfg.seed, cfg.trial,
                              rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(cfg.nodes, gen);
  ring.build_fingers();
  return ring;
}

NetMetrics NetSimulator::simulate(const NetConfig& cfg) {
  const auto ring = make_ring(cfg);
  NetSimulator sim(ring, cfg);
  return sim.run();
}

/// Execute one popped event: count it, fold the trace hash, record the
/// trace entry, hand a request to its node and a reply to the driver.
inline void NetSimulator::execute(const MessageQueue::Event& e) {
  const Message& m = e.payload;
  ++metrics_.events;
  metrics_.end_time = e.time;
  std::uint64_t& h = metrics_.trace_hash;
  fold(h, bits(e.time));
  fold(h, e.seq);
  fold(h, (static_cast<std::uint64_t>(m.type) << 48) ^
              (static_cast<std::uint64_t>(m.at) << 16) ^ m.probe);
  fold(h, (static_cast<std::uint64_t>(m.client) << 32) ^ m.hops);
  fold(h, m.op);
  fold(h, bits(m.key));
  fold(h, m.load);
  if (cfg_.collect_trace) trace_.push_back({e.time, e.seq, m});
  if (cfg_.trace != nullptr) {
    obs::TraceRecord r;
    r.ts_us = transport_.now_us();
    r.op = m.op;
    r.node = m.at;
    r.from = m.from;
    r.client = m.client;
    r.hops = m.hops;
    r.load = m.load;
    r.phase = obs::TracePhase::kPopped;
    r.msg_type = static_cast<std::uint8_t>(m.type);
    cfg_.trace->record(r);
  }
  if (protocol::is_request(m.type)) {
    site_.self = m.at;
    nodes_[m.at].serve(site_, m);
  } else {
    driver_.on_reply(m);
  }
}

NetMetrics NetSimulator::run() {
  if (ran_) throw std::logic_error("NetSimulator::run: single-shot");
  ran_ = true;
  driver_.start();
  while (!transport_.idle() && budget_left()) execute(transport_.pop());
  // Every message belongs to an op and an op's last message completes it,
  // so a drained queue with ops outstanding means a reply was dropped.
  if (budget_left() &&
      (!driver_.done() || driver_.report().ignored_replies != 0)) {
    throw std::logic_error(
        "NetSimulator: event queue drained before the workload completed");
  }
  return finish();
}

/// Pull the wire cost out of the transport, the tallies out of the
/// driver's report, the loads out of the node objects, and hand the
/// metrics out. Registry counters are added in one bulk pass here — never
/// per event — so an enabled-but-idle run costs a handful of adds per
/// trial (the obs_overhead gate).
NetMetrics NetSimulator::finish() {
  const DriverReport& r = driver_.report();
  metrics_.links = transport_.links().total;
  metrics_.links_by_type = transport_.links().by_type;
  metrics_.probe_hops = r.probe_hops;
  metrics_.inserts = r.inserts;
  metrics_.lookups = r.lookups;
  metrics_.puts = r.puts;
  metrics_.gets = r.gets;
  metrics_.get_misses = r.get_misses;
  metrics_.placements = r.placements;
  metrics_.lookup_hops = r.lookup_hops;
  metrics_.lookup_hops_q = r.lookup_hops_q;
  metrics_.insert_latency = r.insert_latency_us;
  metrics_.insert_latency_q = r.insert_latency_us_q;
  metrics_.lookup_latency = r.lookup_latency_us;
  metrics_.lookup_latency_q = r.lookup_latency_us_q;
  metrics_.get_latency = r.get_latency_us;
  metrics_.get_latency_q = r.get_latency_us_q;
  metrics_.loads.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    metrics_.loads.push_back(node.load());
    if (node.load() > metrics_.max_load) metrics_.max_load = node.load();
    metrics_.stale_reads += node.stale_reads();
  }
  if (obs::enabled()) {
    static const obs::Counter c_events("net.events");
    static const obs::Counter c_links("net.links");
    static const obs::Counter c_inserts("net.inserts");
    static const obs::Counter c_lookups("net.lookups");
    static const obs::Counter c_probe_hops("net.probe_hops");
    static const obs::Counter c_stale("net.stale_reads");
    c_events.add(metrics_.events);
    c_links.add(metrics_.links);
    c_inserts.add(metrics_.inserts);
    c_lookups.add(metrics_.lookups);
    c_probe_hops.add(metrics_.probe_hops);
    c_stale.add(metrics_.stale_reads);
  }
  return std::move(metrics_);
}

}  // namespace geochoice::net
