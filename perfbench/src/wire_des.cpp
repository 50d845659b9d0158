// wire_des.cpp — the message-level protocol through the wire front door
// (sim::run with model = wire, transport = sim, engine = auto).
//
// Untraced: repeated one-trial front-door calls. Call 0 is checked against
// the sequential NetSimulator on the same config.
//
// Traced: interleaved obs-off / obs-on front-door pairs give the tracing
// overhead and the simulator's own counters (windows, crew/inline
// windows, events, links); the sequential run is timed apart from its
// ring build; and the event queue, the Chord next hop and the latency
// draw are replayed with inputs shaped like the run.
#include <map>
#include <string>
#include <vector>

#include "dht/chord.hpp"
#include "net/event_queue.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "rng/distributions.hpp"
#include "rng/streams.hpp"
#include "sim/net_experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gc = geochoice;

namespace {

constexpr std::uint64_t kNodes = 1u << 14;
constexpr std::uint64_t kInserts = 1u << 18;
constexpr std::uint64_t kLookups = 1u << 16;
constexpr std::uint32_t kWindow = 16;

[[nodiscard]] gc::sim::Scenario wire_scenario(std::uint64_t seed) {
  gc::sim::Scenario sc;
  sc.model = gc::sim::ExecModel::kWire;
  sc.transport = gc::sim::WireTransport::kSim;
  sc.space = gc::sim::SpaceKind::kChordNet;
  sc.num_servers = kNodes;
  sc.num_balls = kInserts;
  sc.num_choices = 2;
  sc.tie = gc::core::TieBreak::kFirstChoice;
  sc.window = kWindow;
  sc.latency = gc::net::LatencyModel::uniform(0.5, 1.5);
  sc.lookups = kLookups;
  sc.trials = 1;
  sc.seed = seed;
  sc.threads = 0;
  sc.engine = gc::sim::Engine::kAuto;
  return sc;
}

/// The NetConfig trial 0 of a one-trial front-door call runs.
[[nodiscard]] gc::net::NetConfig net_config(const gc::sim::Scenario& sc) {
  gc::net::NetConfig cfg = gc::sim::net_scenario_config(sc).net;
  cfg.trial = 0;
  return cfg;
}

/// The in-trial worker count the front door resolved, when the spec still
/// has one (0 otherwise).
template <typename Spec>
[[nodiscard]] double workers_of(const Spec& spec) {
  if constexpr (requires { spec.workers; }) {
    return static_cast<double>(spec.workers);
  } else {
    return 0.0;
  }
}

[[nodiscard]] std::uint64_t insert_links(const gc::net::NetMetrics& m) {
  const auto by = [&](gc::net::MsgType t) {
    return m.links_by_type[static_cast<std::size_t>(t)];
  };
  return by(gc::net::MsgType::kProbe) + by(gc::net::MsgType::kProbeReply) +
         by(gc::net::MsgType::kPlace) + by(gc::net::MsgType::kPlaceAck);
}

/// Hold-model replay of the calendar queue: `inflight` messages pending,
/// each pop schedules one successor a link delay later. Returns ns per
/// pop + push.
[[nodiscard]] double replay_event_queue(const gc::net::NetConfig& cfg,
                                        std::uint64_t seed) {
  const std::size_t inflight =
      static_cast<std::size_t>(cfg.window) * static_cast<std::size_t>(cfg.choices);
  constexpr std::size_t kHolds = 1u << 21;
  auto gen = gc::rng::make_stream(seed, 0, gc::rng::StreamPurpose::kNetLatency);
  std::vector<double> delay(kHolds + inflight);
  for (double& x : delay) x = cfg.latency.sample(gen);
  gc::net::MessageQueue q(cfg.latency.mean() / static_cast<double>(inflight));
  gc::net::Message m;
  for (std::size_t i = 0; i < inflight; ++i) {
    m.op = i;
    (void)q.push(delay[i], m);
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kHolds; ++i) {
    auto e = q.pop();
    (void)q.push(e.time + delay[inflight + i], e.payload);
  }
  return ns_since(t0) / static_cast<double>(kHolds);
}

/// ns per LatencyModel::sample on the run's latency substream.
[[nodiscard]] double replay_latency(const gc::net::NetConfig& cfg) {
  constexpr std::size_t kDraws = 1u << 22;
  auto gen = gc::rng::make_stream(cfg.seed, cfg.trial,
                                  gc::rng::StreamPurpose::kNetLatency);
  double sum = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kDraws; ++i) sum += cfg.latency.sample(gen);
  const double ns = ns_since(t0);
  return sum > 0.0 ? ns / static_cast<double>(kDraws) : 0.0;
}

/// ns per ChordRing::next_hop along greedy routes from random nodes to
/// random keys on the run's ring. Returns {ns per hop, hops}.
[[nodiscard]] std::pair<double, double> replay_next_hop(
    const gc::dht::ChordRing& ring, std::uint64_t seed) {
  constexpr std::size_t kRoutes = 1u << 17;
  auto gen = gc::rng::make_stream(seed, 1, gc::rng::StreamPurpose::kWorkload);
  const std::size_t n = ring.node_count();
  std::vector<std::pair<std::uint32_t, double>> routes(kRoutes);
  for (auto& [from, key] : routes) {
    from = static_cast<std::uint32_t>(gc::rng::uniform_below(gen, n));
    key = gc::rng::uniform01(gen);
  }
  std::uint64_t hops = 0;
  const auto t0 = Clock::now();
  for (const auto& [from, key] : routes) {
    const std::uint32_t dest = ring.successor(key);
    for (std::uint32_t at = from; at != dest && hops < n * kRoutes; ++hops) {
      at = ring.next_hop(at, key);
    }
  }
  const double ns = ns_since(t0);
  return {hops > 0 ? ns / static_cast<double>(hops) : 0.0,
          static_cast<double>(hops)};
}

}  // namespace

std::string check_wire(const gc::sim::RunReport& front,
                       const gc::net::NetMetrics& seq) {
  const gc::sim::WireMetrics& w = front.wire;
  const double inserts = static_cast<double>(seq.inserts);
  std::string why;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) why += what + "; ";
  };
  expect(front.max_load.total() == 1 &&
             front.max_load.max_value() == seq.max_load,
         "max load " + std::to_string(front.max_load.max_value()) +
             " != sequential " + std::to_string(seq.max_load));
  expect(seq.inserts == front.spec.balls(), "inserts not all placed");
  expect(seq.lookups == front.spec.lookups, "lookups not all answered");
  expect(w.mean_events == static_cast<double>(seq.events), "event count");
  expect(w.links_per_insert ==
             static_cast<double>(insert_links(seq)) / inserts,
         "links per insert");
  expect(w.probe_hops_per_insert ==
             static_cast<double>(seq.probe_hops) / inserts,
         "probe hops per insert");
  expect(w.stale_fraction == static_cast<double>(seq.stale_reads) / inserts,
         "stale fraction");
  expect(w.mean_end_time == seq.end_time, "end time");
  expect(w.mean_lookup_hops == seq.lookup_hops.mean(), "lookup hops");

  std::vector<std::uint32_t> placed(seq.loads.size(), 0);
  bool in_range = true;
  for (const std::uint32_t node : seq.placements) {
    if (node < placed.size()) {
      ++placed[node];
    } else {
      in_range = false;
    }
  }
  expect(in_range && placed == seq.loads,
         "sequential placements disagree with its census loads");
  return why;
}

Result run_wire_des(const Options& opt) {
  Result res;
  const auto setup_cfg =
      net_config(wire_scenario(call_seed(opt.seed, ~std::uint64_t{0})));
  const auto setup = [&] {
    (void)gc::net::NetSimulator::make_ring(setup_cfg);
  };

  const double ops_per_call = static_cast<double>(kInserts + kLookups);
  std::vector<double> ns_per_event;
  gc::sim::Scenario sc0;
  gc::sim::RunReport front0;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto timed = repeat_for(budget, 3, setup, [&](std::uint64_t call) {
    const auto sc = wire_scenario(call_seed(opt.seed, call));
    const auto t0 = Clock::now();
    auto report = gc::sim::run(sc);
    ns_per_event.push_back(ns_since(t0) / report.wire.mean_events);
    if (call == 0) {
      sc0 = sc;
      front0 = std::move(report);
    }
    return ops_per_call;
  });
  add_rep_metrics(res, timed);
  res.set("wire_ops_per_sec", res.metrics["ops_per_sec"].value, "1/s",
          timed.reps.size());

  // Check call 0 against the sequential simulator, timing its run apart
  // from its ring build.
  const auto cfg = net_config(sc0);
  const auto ring = gc::net::NetSimulator::make_ring(cfg);
  gc::net::NetSimulator seq_sim(ring, cfg);
  const auto t0 = Clock::now();
  const auto seq = seq_sim.run();
  const double seq_run_s = seconds_since(t0);
  const std::string why = check_wire(front0, seq);
  if (!why.empty()) res.fail("wire_des: " + why, kInserts + kLookups);

  const double workers = workers_of(front0.spec);
  res.note("wire_workers", workers);
  res.set("sim.wire_workers", workers, "count", 1);
  if (!opt.trace) return res;

  // Tracing overhead and the simulator's own counters.
  std::vector<double> ratio;
  std::map<std::string, double> counters;
  std::size_t on_calls = 0;
  const auto start = Clock::now();
  for (std::uint64_t call = 0;
       ratio.size() < 3 || seconds_since(start) < opt.seconds / 4; ++call) {
    auto sc = wire_scenario(call_seed(opt.seed, (1ull << 32) + call));
    double off = 0.0, on = 0.0;
    for (int k = 0; k < 2; ++k) {
      sc.obs = (k == 0) == (call % 2 == 0);
      const auto t1 = Clock::now();
      const auto report = gc::sim::run(sc);
      (sc.obs ? on : off) += seconds_since(t1);
      for (const auto& m : report.metrics) counters[m.name] += m.value;
    }
    ++on_calls;
    ratio.push_back(on / off);
  }
  const auto per_call = [&](const std::string& name) {
    return counters[name] / static_cast<double>(on_calls);
  };
  res.set("trace.overhead_frac", median(ratio) - 1.0, "frac", ratio.size());
  res.set("parallel.windows", per_call("parallel.windows"), "count", on_calls);
  res.set("parallel.crew_windows", per_call("parallel.barrier.crew_windows"),
          "count", on_calls);
  res.set("parallel.inline_windows",
          per_call("parallel.barrier.inline_windows"), "count", on_calls);
  res.set("parallel.skipped_windows", per_call("parallel.barrier.skipped"),
          "count", on_calls);
  for (const auto& [name, value] : counters) {
    res.note("obs." + name, value / static_cast<double>(on_calls));
  }

  const double events = static_cast<double>(seq.events);
  const double hops = static_cast<double>(seq.probe_hops) +
                      seq.lookup_hops.mean() * static_cast<double>(seq.lookups);
  res.set("net.events_per_op", events / ops_per_call, "count", 1);
  res.set("net.links_per_insert", front0.wire.links_per_insert, "count", 1);
  res.set("net.stale_frac", front0.wire.stale_fraction, "frac", 1);
  res.set("net.sequential_ns_per_event", seq_run_s * 1e9 / events, "ns", 1);
  const double front_ns = median(ns_per_event);
  res.set("net.front_door_ns_per_event", front_ns, "ns", ns_per_event.size());
  const Metric& ring_build = res.metrics["setup_s"];
  res.set("dht.ring_build_s", ring_build.value, "s", ring_build.samples);

  const double queue_ns = replay_event_queue(cfg, opt.seed);
  const double draw_ns = replay_latency(cfg);
  const auto [hop_ns, replay_hops] = replay_next_hop(ring, opt.seed);
  res.set("net.event_queue.ns_per_event", queue_ns, "ns", 1);
  res.set("net.latency.ns_per_draw", draw_ns, "ns", 1);
  res.set("dht.next_hop_ns", hop_ns, "ns", 1);
  res.note("next_hop_replay_hops", replay_hops);

  // Layer time per event the replays account for, against the front door.
  const double accounted =
      queue_ns + static_cast<double>(seq.links) / events * draw_ns +
      hops / events * hop_ns + ring_build.value * 1e9 / events;
  res.set("sim.uncovered_frac", 1.0 - accounted / front_ns, "frac", 1);
  return res;
}

}  // namespace perfbench
