// udp_kv.cpp — real datagrams over loopback through
// net::run_loopback_cluster: 16 nodes pumped by one thread, a closed-loop
// ClientDriver with 16 ops in flight running inserts, lookups, one put per
// inserted key and Zipf(0.9) store gets.
//
// Untraced: repeated run_loopback_cluster calls, every one checked.
//
// Traced: the same nodes and driver pumped through TimedUdp, a Transport
// wrapper around UdpTransport that times every send and lets the pump
// time every poll and handler, so poll, node-handler, client and send
// self times come out per op. The wrapper also stamps each op's first
// send and first reply, which gives exact per-type latency percentiles to
// hold the driver's streaming P² estimates against. The wire codec and
// the node store are replayed on the run's own messages and keys.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dht/chord.hpp"
#include "net/node.hpp"
#include "net/protocol.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "rng/alias_table.hpp"
#include "rng/streams.hpp"
#include "store/hash_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gc = geochoice;
using gc::net::Message;
using gc::net::MsgType;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::uint64_t kInserts = 100'000;
constexpr std::uint64_t kLookups = 20'000;
constexpr std::uint64_t kGets = 100'000;
constexpr std::uint32_t kWindow = 16;

[[nodiscard]] gc::net::ClusterConfig kv_config(std::uint64_t seed) {
  gc::net::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.driver.inserts = kInserts;
  cfg.driver.lookups = kLookups;
  cfg.driver.store_gets = kGets;
  cfg.driver.store_zipf_alpha = 0.9;
  cfg.driver.window = kWindow;
  cfg.driver.choices = 2;
  cfg.driver.tie = gc::core::TieBreak::kFirstChoice;
  cfg.driver.seed = seed;
  cfg.driver.trial = 0;
  return cfg;
}

/// inserts + lookups + puts (one per inserted key) + gets.
[[nodiscard]] std::uint64_t ops_of(const gc::net::DriverConfig& d) {
  return d.inserts + d.lookups + d.inserts + d.store_gets;
}

/// Ops that never completed or read back nothing.
[[nodiscard]] std::uint64_t lost_ops(const gc::net::DriverConfig& d,
                                     const gc::net::DriverReport& r) {
  const auto short_of = [](std::uint64_t want, std::uint64_t got) {
    return want > got ? want - got : 0;
  };
  return short_of(d.inserts, r.inserts) + short_of(d.lookups, r.lookups) +
         short_of(d.inserts, r.puts) + short_of(d.store_gets, r.gets) +
         r.get_misses;
}

/// Number of op types whose streaming {p50, p90, p99} is not monotone.
[[nodiscard]] int nonmonotone(const gc::net::DriverReport& r) {
  int bad = 0;
  for (const auto* q : {&r.insert_latency_us_q, &r.lookup_latency_us_q,
                        &r.get_latency_us_q}) {
    if (q->count() == 0) continue;
    for (std::size_t i = 1; i < q->size(); ++i) {
      if (q->value(i) < q->value(i - 1)) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

enum OpKind : std::size_t { kInsert, kLookup, kPut, kGet, kKinds };

/// What the timing wrapper and the traced pump saw.
struct Ledger {
  explicit Ledger(const gc::net::DriverConfig& d) {
    const std::array<std::uint64_t, kKinds> sizes = {d.inserts, d.lookups,
                                                     d.inserts, d.store_gets};
    for (std::size_t k = 0; k < kKinds; ++k) {
      start_ns[k].assign(sizes[k], -1.0);
      replied[k].assign(sizes[k], 0);
    }
  }

  double send_ns = 0.0;
  std::uint64_t sends = 0;
  double poll_ns = 0.0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  double node_ns = 0.0;         // server handlers, sends included
  double node_send_ns = 0.0;    // sends made inside them
  double client_ns = 0.0;       // driver reply/timer handlers, sends included
  double client_send_ns = 0.0;  // sends made inside them
  bool in_client = false;       // the driver is on the stack
  Clock::time_point epoch = Clock::now();
  std::array<std::vector<double>, kKinds> start_ns;
  std::array<std::vector<char>, kKinds> replied;
  std::array<std::vector<double>, kKinds> latency_us;
  std::vector<Message> sent_sample;  // for the codec replay

  [[nodiscard]] double now_ns() const { return ns_since(epoch); }

  void on_client_send(const Message& m, double t) {
    std::size_t kind = kKinds;
    switch (m.type) {
      case MsgType::kProbe:
        if (m.probe != gc::net::protocol::kCensusProbe) kind = kInsert;
        break;
      case MsgType::kLookup:
        kind = kLookup;
        break;
      case MsgType::kPut:
        kind = kPut;
        break;
      case MsgType::kGet:
        kind = kGet;
        break;
      default:
        break;
    }
    if (kind == kKinds || m.op >= start_ns[kind].size()) return;
    if (start_ns[kind][m.op] < 0.0) start_ns[kind][m.op] = t;  // first send
  }

  void on_reply(const Message& m, double t) {
    std::size_t kind = kKinds;
    switch (m.type) {
      case MsgType::kPlaceAck:
        kind = kInsert;
        break;
      case MsgType::kLookupReply:
        kind = kLookup;
        break;
      case MsgType::kPutAck:
        kind = kPut;
        break;
      case MsgType::kGetReply:
        kind = kGet;
        break;
      default:
        return;
    }
    if (m.op >= start_ns[kind].size() || replied[kind][m.op] != 0 ||
        start_ns[kind][m.op] < 0.0) {
      return;
    }
    replied[kind][m.op] = 1;
    latency_us[kind].push_back((t - start_ns[kind][m.op]) * 1e-3);
  }
};

/// The Transport the node logic and the driver see in the traced pass:
/// UdpTransport's surface, with every send timed into the ledger.
class TimedUdp {
 public:
  using Timer = gc::net::UdpTransport::Timer;
  static constexpr std::size_t kSample = 4096;

  TimedUdp(gc::net::UdpTransport& inner, Ledger& ledger)
      : inner_(&inner), ledger_(&ledger) {}

  [[nodiscard]] std::uint32_t self() const noexcept { return inner_->self(); }

  void send(const Message& m) {
    const double t0 = ledger_->now_ns();
    if (ledger_->in_client) ledger_->on_client_send(m, t0);
    inner_->send(m);
    ledger_->send_ns += ledger_->now_ns() - t0;
    ++ledger_->sends;
    if (ledger_->sent_sample.size() < kSample) {
      ledger_->sent_sample.push_back(m);
    }
  }
  void deliver_local(const Message& m) { inner_->deliver_local(m); }
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    return inner_->schedule(delay_ms, m);
  }
  void cancel(Timer t) { inner_->cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return inner_->armed(t); }
  [[nodiscard]] std::uint64_t now_ms() const { return inner_->now_ms(); }
  [[nodiscard]] std::uint64_t now_us() const { return inner_->now_us(); }

 private:
  gc::net::UdpTransport* inner_;
  Ledger* ledger_;
};

[[nodiscard]] bool is_request(MsgType t) {
  return t == MsgType::kProbe || t == MsgType::kPlace ||
         t == MsgType::kLookup || t == MsgType::kPut || t == MsgType::kGet;
}

/// run_loopback_cluster's loop, pumped through TimedUdp. Returns the
/// cluster result; the ledger holds the spans.
gc::net::ClusterResult traced_cluster(const gc::net::ClusterConfig& cfg,
                                      Ledger& L, double& wall_s) {
  auto gen = gc::rng::make_stream(cfg.driver.seed, cfg.driver.trial,
                                  gc::rng::StreamPurpose::kServerPlacement);
  auto ring = gc::dht::ChordRing::random(cfg.nodes, gen);
  ring.build_fingers();

  std::vector<std::unique_ptr<gc::net::UdpTransport>> udp;
  std::vector<std::unique_ptr<TimedUdp>> timed;
  std::vector<gc::net::Endpoint> peers;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    udp.push_back(std::make_unique<gc::net::UdpTransport>(
        static_cast<std::uint32_t>(i), 0));
    timed.push_back(std::make_unique<TimedUdp>(*udp.back(), L));
    peers.push_back(gc::net::Endpoint{0x7f000001u, udp.back()->port()});
  }
  for (auto& t : udp) t->set_peers(peers);
  std::vector<gc::net::NodeLogic<TimedUdp>> nodes;
  nodes.reserve(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    nodes.emplace_back(ring, static_cast<std::uint32_t>(i), *timed[i]);
  }
  gc::net::ClientDriver<TimedUdp> driver(ring, cfg.driver, *timed[0]);

  const auto start = Clock::now();
  L.in_client = true;
  driver.start();
  L.in_client = false;
  while (!driver.done()) {
    if (seconds_since(start) * 1e3 > static_cast<double>(cfg.timeout_ms)) {
      throw std::runtime_error("traced cluster did not finish in time");
    }
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      bool delivered = false;
      auto on_message = [&, i](const Message& m) {
        delivered = true;
        const bool request = is_request(m.type);
        if (!request && i != 0) return;
        const double h0 = L.now_ns();
        const double s0 = L.send_ns;
        if (request) {
          nodes[i].on_message(m);
          L.node_ns += L.now_ns() - h0;
          L.node_send_ns += L.send_ns - s0;
        } else {
          L.on_reply(m, h0);
          L.in_client = true;
          driver.on_reply(m);
          L.in_client = false;
          L.client_ns += L.now_ns() - h0;
          L.client_send_ns += L.send_ns - s0;
        }
      };
      auto on_timer = [&, i](const Message& t) {
        if (i != 0) return;
        const double h0 = L.now_ns();
        const double s0 = L.send_ns;
        L.in_client = true;
        driver.on_timer(t);
        L.in_client = false;
        L.client_ns += L.now_ns() - h0;
        L.client_send_ns += L.send_ns - s0;
      };
      const double p0 = L.now_ns();
      udp[i]->poll(i == 0 ? 1 : 0, on_message, on_timer);
      L.poll_ns += L.now_ns() - p0;
      ++L.polls;
      if (!delivered) ++L.empty_polls;
    }
  }
  wall_s = seconds_since(start);

  gc::net::ClusterResult result;
  result.report = driver.report();
  for (const auto& t : udp) {
    result.datagrams += t->links().total;
    result.malformed += t->malformed();
  }
  for (const auto& n : nodes) {
    result.stale_reads += n.stale_reads();
    result.keys_stored += n.keys_stored();
  }
  result.elapsed_ms = static_cast<std::uint64_t>(wall_s * 1e3);
  return result;
}

/// ns per wire::encode and per wire::decode over the sampled messages;
/// false if any frame fails to round-trip.
bool replay_codec(const std::vector<Message>& sample, double& encode_ns,
                  double& decode_ns) {
  constexpr std::size_t kTarget = 1u << 21;
  const std::size_t rounds = kTarget / std::max<std::size_t>(sample.size(), 1);
  std::vector<gc::net::wire::Frame> frames(sample.size());
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      frames[i] = gc::net::wire::encode(sample[i]);
    }
  }
  const double calls = static_cast<double>(rounds * sample.size());
  encode_ns = ns_since(t0) / calls;
  // Folding every decoded field keeps the whole decode observable.
  const auto fold = [](const Message& m) {
    return m.op + m.at + m.from + m.client + m.hops + m.load + m.dest +
           m.slot + m.value + m.probe + static_cast<std::uint64_t>(m.type) +
           std::bit_cast<std::uint64_t>(m.key);
  };
  bool ok = true;
  std::uint64_t decoded = 0;
  t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& f : frames) {
      const auto m = gc::net::wire::decode(f);
      if (m) {
        decoded += fold(*m);
      } else {
        ok = false;
      }
    }
  }
  decode_ns = ns_since(t0) / calls;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto m = gc::net::wire::decode(frames[i]);
    ok = ok && m && gc::net::wire::encode(*m) == frames[i];
    expected += fold(sample[i]);
  }
  return ok && decoded == expected * rounds;
}

/// ns per HashStore put and get, with the run's keys in per-node stores
/// and Zipf(alpha) reads. False if a get returns a wrong or no value.
bool replay_store(const gc::net::DriverConfig& d,
                  const std::vector<std::uint32_t>& placements,
                  std::size_t nodes, double& put_ns, double& get_ns) {
  std::vector<gc::store::HashStore> stores;
  stores.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    stores.emplace_back(gc::store::HashStore::kNeighborhood);
  }
  auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < placements.size(); ++k) {
    stores[placements[k]].put_u64(k, gc::net::protocol::store_value(k));
  }
  put_ns = ns_since(t0) / static_cast<double>(placements.size());

  constexpr std::size_t kReads = 1u << 20;
  const gc::rng::AliasTable popularity(
      gc::rng::zipf_weights(placements.size(), d.store_zipf_alpha));
  auto gen = gc::rng::make_stream(d.seed, d.trial,
                                  gc::rng::StreamPurpose::kWorkload);
  std::vector<std::uint32_t> keys(kReads);
  for (auto& k : keys) k = popularity.sample(gen);
  bool ok = true;
  t0 = Clock::now();
  for (const std::uint32_t k : keys) {
    const auto v = stores[placements[k]].get_u64(k);
    ok = ok && v && *v == gc::net::protocol::store_value(k);
  }
  get_ns = ns_since(t0) / static_cast<double>(kReads);
  return ok;
}

}  // namespace

std::string check_kv(const gc::net::ClusterConfig& cfg,
                     const gc::net::ClusterResult& r) {
  const auto& d = cfg.driver;
  const auto& rep = r.report;
  std::string why;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) why += what + "; ";
  };
  expect(rep.inserts == d.inserts, "inserts acked " +
                                       std::to_string(rep.inserts) + "/" +
                                       std::to_string(d.inserts));
  expect(rep.lookups == d.lookups, "lookups answered " +
                                       std::to_string(rep.lookups) + "/" +
                                       std::to_string(d.lookups));
  const std::uint64_t want_puts = d.store_gets > 0 ? d.inserts : 0;
  expect(rep.puts == want_puts, "puts acked " + std::to_string(rep.puts) +
                                    "/" + std::to_string(want_puts));
  expect(rep.gets == d.store_gets, "gets answered " +
                                       std::to_string(rep.gets) + "/" +
                                       std::to_string(d.store_gets));
  expect(rep.get_misses == 0,
         std::to_string(rep.get_misses) + " gets missed their key");
  expect(r.keys_stored == want_puts,
         "keys stored " + std::to_string(r.keys_stored));
  expect(r.malformed == 0, std::to_string(r.malformed) + " malformed frames");

  std::vector<std::uint32_t> placed(cfg.nodes, 0);
  bool in_range = rep.placements.size() == d.inserts;
  for (const std::uint32_t node : rep.placements) {
    if (node < placed.size()) {
      ++placed[node];
    } else {
      in_range = false;
    }
  }
  expect(in_range && placed == rep.loads,
         "client placements disagree with the census loads");
  const std::uint32_t max_load =
      rep.loads.empty() ? 0 : *std::max_element(rep.loads.begin(),
                                                  rep.loads.end());
  expect(max_load == rep.max_load, "max load disagrees with the census");
  return why;
}

Result run_udp_kv(const Options& opt) {
  Result res;
  const std::uint64_t ops = ops_of(kv_config(0).driver);

  // Set-up: bind the cluster and run the census of an empty workload.
  auto empty = kv_config(call_seed(opt.seed, ~std::uint64_t{0}));
  empty.driver.inserts = 0;
  empty.driver.lookups = 0;
  empty.driver.store_gets = 0;
  const auto setup = [&] { (void)gc::net::run_loopback_cluster(empty); };

  std::array<std::vector<double>, 4> p2;  // insert p50/p99, get p50/p99
  std::vector<double> stale, retransmits;
  double malformed = 0.0;
  double bad_quantile_sets = 0.0;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto timed = repeat_for(budget, 3, setup, [&](std::uint64_t call) {
    const auto cfg = kv_config(call_seed(opt.seed, call));
    try {
      const auto r = gc::net::run_loopback_cluster(cfg);
      const std::string why = check_kv(cfg, r);
      if (!why.empty()) {
        res.fail("udp_kv call " + std::to_string(call) + ": " + why,
                 std::max<std::uint64_t>(lost_ops(cfg.driver, r.report), 1));
      }
      const auto& rep = r.report;
      p2[0].push_back(rep.insert_latency_us_q.value(0));
      p2[1].push_back(rep.insert_latency_us_q.value(2));
      p2[2].push_back(rep.get_latency_us_q.value(0));
      p2[3].push_back(rep.get_latency_us_q.value(2));
      stale.push_back(static_cast<double>(r.stale_reads) /
                      static_cast<double>(rep.inserts));
      retransmits.push_back(static_cast<double>(rep.total_retransmits()));
      malformed += static_cast<double>(r.malformed);
      bad_quantile_sets += nonmonotone(rep);
    } catch (const std::exception& e) {
      res.fail("udp_kv call " + std::to_string(call) + ": " + e.what(), ops);
    }
    return static_cast<double>(ops);
  });
  add_rep_metrics(res, timed);
  const auto& reps = timed.reps;
  const std::size_t n = reps.size();
  res.set("kv_ops_per_sec", res.metrics["ops_per_sec"].value, "1/s", n);
  res.set("insert_p50_us", median(p2[0]), "us", n);
  res.set("insert_p99_us", median(p2[1]), "us", n);
  res.set("get_p50_us", median(p2[2]), "us", n);
  res.set("get_p99_us", median(p2[3]), "us", n);
  res.set("node.stale_frac", median(stale), "frac", n);
  res.set("udp.retransmits", median(retransmits), "count", n);
  res.set("udp.malformed", malformed, "count", n);
  res.note("latency_samples_per_call.insert", static_cast<double>(kInserts));
  res.note("latency_samples_per_call.get", static_cast<double>(kGets));
  if (!opt.trace) return res;

  // dht layer: the 16-node ring every node derives.
  std::vector<double> ring_build;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    auto gen = gc::rng::make_stream(opt.seed, i,
                                    gc::rng::StreamPurpose::kServerPlacement);
    auto ring = gc::dht::ChordRing::random(kNodes, gen);
    ring.build_fingers();
    ring_build.push_back(seconds_since(t0));
  }
  res.set("dht.ring_build_s", median(ring_build), "s", ring_build.size());

  // The traced pump.
  const auto cfg = kv_config(call_seed(opt.seed, 1ull << 32));
  Ledger L(cfg.driver);
  double wall_s = 0.0;
  const auto r = traced_cluster(cfg, L, wall_s);
  const std::string why = check_kv(cfg, r);
  if (!why.empty()) {
    res.fail("udp_kv traced: " + why,
             std::max<std::uint64_t>(lost_ops(cfg.driver, r.report), 1));
  }
  const double per_op = 1e-3 / static_cast<double>(ops);  // ns -> us per op
  const double handlers = L.node_ns + L.client_ns;
  res.set("udp.datagrams_per_op",
          static_cast<double>(L.sends) / static_cast<double>(ops), "count", 1);
  res.set("udp.poll_calls_per_op",
          static_cast<double>(L.polls) / static_cast<double>(ops), "count", 1);
  res.set("udp.empty_poll_frac",
          static_cast<double>(L.empty_polls) / static_cast<double>(L.polls),
          "frac", 1);
  res.set("udp.poll_self_us_per_op", (L.poll_ns - handlers) * per_op, "us", 1);
  res.set("udp.send_us_per_op", L.send_ns * per_op, "us", 1);
  res.set("node.handle_self_us_per_op", (L.node_ns - L.node_send_ns) * per_op,
          "us", 1);
  res.set("client.on_reply_self_us_per_op",
          (L.client_ns - L.client_send_ns) * per_op, "us", 1);
  // Sends outside any poll (the driver's first window) complete the spans.
  const double outside = L.send_ns - L.node_send_ns - L.client_send_ns;
  res.set("sim.uncovered_frac", 1.0 - (L.poll_ns + outside) * 1e-9 / wall_s,
          "frac", 1);
  res.set("trace.overhead_frac",
          wall_s / static_cast<double>(ops) /
                  median_of(reps, [](const Rep& x) { return x.wall_s / x.ops; }) -
              1.0,
          "frac", 1);

  // Exact per-type percentiles from the wrapper's stamps, against the
  // driver's P² estimates from the same run.
  const auto& rep = r.report;
  struct Stream {
    const char* name;
    OpKind kind;
    const gc::stats::P2QuantileSet* q;
  };
  const std::array<Stream, 3> streams = {{
      {"insert", kInsert, &rep.insert_latency_us_q},
      {"lookup", kLookup, &rep.lookup_latency_us_q},
      {"get", kGet, &rep.get_latency_us_q},
  }};
  double worst = 0.0;
  for (const auto& [name, kind, q] : streams) {
    auto& v = L.latency_us[kind];
    for (std::size_t i = 0; i < q->size(); ++i) {
      const double p = q->probability(i);
      const double exact = exact_quantile(v, p);
      if (exact > 0.0) {
        worst = std::max(worst, std::abs(q->value(i) - exact) / exact);
      }
      res.note("latency." + std::string(name) + "_p" +
                   std::to_string(static_cast<int>(p * 100 + 0.5)) +
                   "_us.p2_vs_exact",
               std::to_string(q->value(i)) + " vs " + std::to_string(exact));
    }
  }
  bad_quantile_sets += nonmonotone(rep);
  res.set("latency.p2_max_rel_err", worst, "frac", 1);
  res.set("latency.p2_nonmonotone", bad_quantile_sets, "count", n + 1);
  res.set("latency.insert_p50_exact_us",
          exact_quantile(L.latency_us[kInsert], 0.5), "us",
          L.latency_us[kInsert].size());
  res.set("latency.insert_p99_exact_us",
          exact_quantile(L.latency_us[kInsert], 0.99), "us",
          L.latency_us[kInsert].size());
  res.set("latency.get_p50_exact_us", exact_quantile(L.latency_us[kGet], 0.5),
          "us", L.latency_us[kGet].size());
  res.set("latency.get_p99_exact_us", exact_quantile(L.latency_us[kGet], 0.99),
          "us", L.latency_us[kGet].size());

  double encode_ns = 0.0, decode_ns = 0.0;
  if (!replay_codec(L.sent_sample, encode_ns, decode_ns)) {
    res.fail("wire codec round trip", 1);
  }
  res.set("wire.encode_ns", encode_ns, "ns", L.sent_sample.size());
  res.set("wire.decode_ns", decode_ns, "ns", L.sent_sample.size());

  double put_ns = 0.0, get_ns = 0.0;
  if (!replay_store(cfg.driver, rep.placements, cfg.nodes, put_ns, get_ns)) {
    res.fail("store replay returned a wrong value", 1);
  }
  res.set("store.put_ns", put_ns, "ns", rep.placements.size());
  res.set("store.get_ns", get_ns, "ns", 1u << 20);
  return res;
}

}  // namespace perfbench
