// node.hpp — the protocol, written once against the Transport seam.
//
// This file is the only implementation of the Chord + two-choice wire
// protocol. It is split along the protocol's client/server line:
//
//   * NodeLogic: the server half, one instance per node. Routes
//     probes/lookups one Chord hop, answers the ones it owns, applies
//     placements, and serves values from its HashStore (kPut writes are
//     idempotent overwrites, so retransmits need no dedup; kGet answers
//     from local state only). It is deliberately state-light: probes read
//     the load, placements bump it, the store is built on the first kPut,
//     and over a transport that can deliver a datagram twice it keeps the
//     at-most-once memory that makes placement retransmits safe.
//   * ClientDriver: the client half. Issues the two-choice insertion
//     workload (then measurement lookups and the store phases), collects
//     replies, picks candidates with protocol::pick_best_candidate fed
//     from the kBallChoices substream, and arms retransmit timers because
//     real datagrams get lost.
//
// Both halves are templates over the transport (transport.hpp), and two
// worlds instantiate them:
//
//   * NetSimulator (simulator.hpp) hosts one NodeLogic per ring node and
//     one ClientDriver over a shared SimTransport: the deterministic DES,
//     where each op's client is a uniform draw from the kWorkload
//     substream, latencies are simulated time, and loads are read from
//     the node objects when the workload completes;
//   * a UdpTransport per node (cluster.hpp, the dht_node binary): the
//     real network, where the driver issues from its own node, measures
//     microseconds, and reads loads back with census probes.
//
// The few places the worlds differ ask kSimulated<Transport>; everything
// else — every handler, every message — is shared. So with window = 1
// and a deterministic tie-break, the cluster's placement sequence is
// bit-identical to NetSimulator's (a placement depends only on the
// candidate stream and the serial load evolution), duplicated, delayed or
// reordered datagrams included. tests/test_udp_cluster.cpp checks it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/object_pool.hpp"
#include "core/tie_breaking.hpp"
#include "dht/chord.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "rng/alias_table.hpp"
#include "rng/streams.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/summary.hpp"
#include "store/hash_store.hpp"

namespace geochoice::net {

/// Where a node runs: the ring it routes on, the transport it sends
/// through, the recorder it traces into (may be null), and its own id.
template <typename Transport>
struct NodeSite {
  const dht::ChordRing* ring = nullptr;
  Transport* transport = nullptr;
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t self = 0;
};

/// The server half: route or serve. One instance per node.
///
/// A node on a real transport owns its site and takes requests through
/// on_message. In the DES, NetSimulator keeps every node on one shared
/// site and passes it to serve with each request, so a simulated node is
/// nothing but its state: 16 bytes until a store phase builds its
/// HashStore, and untouched by the messages it merely forwards.
template <typename Transport>
class NodeLogic {
 public:
  using Site = NodeSite<Transport>;

  /// `ring` must have finger tables built; every node derives the
  /// identical ring from the shared (seed, trial). `trace` (optional, not
  /// owned) records forwarded/delivered lifecycle events.
  NodeLogic(const dht::ChordRing& ring, std::uint32_t self,
            Transport& transport, obs::TraceRecorder* trace = nullptr)
    requires(!kSimulated<Transport>)
      : site_{&ring, &transport, trace, self} {}

  /// A DES node: NetSimulator passes the shared site to serve.
  NodeLogic() requires kSimulated<Transport> = default;

  /// Handle one request at this node's own site.
  void on_message(const Message& msg) requires(!kSimulated<Transport>) {
    serve(site_, msg);
  }

  /// Handle one request (kProbe / kPlace / kLookup / kPut / kGet) as node
  /// site.self. Replies are the client's business — route them to a
  /// ClientDriver.
  void serve(const Site& site, const Message& msg) {
    switch (msg.type) {
      case MsgType::kProbe: {
        Message m = msg;
        if (!route(site, m)) return;
        trace_event(site, obs::TracePhase::kDelivered, m);
        Message reply = protocol::make_probe_reply(m, load_);
        if constexpr (!kSimulated<Transport>) {
          // A census probe also reads back how many keys this node stores.
          if (m.probe == protocol::kCensusProbe) reply.value = keys_stored();
        }
        site.transport->send(reply);
        return;
      }
      case MsgType::kPlace:
        on_place(site, msg);
        return;
      case MsgType::kLookup: {
        Message m = msg;
        if (!route(site, m)) return;
        trace_event(site, obs::TracePhase::kDelivered, m);
        site.transport->send(protocol::make_lookup_reply(m));
        return;
      }
      case MsgType::kPut: {
        // Direct message (the client knows our address from the placement
        // phase): store and ack. Overwrite semantics make a retransmitted
        // put — its first ack lost — naturally at-most-once.
        trace_event(site, obs::TracePhase::kDelivered, msg);
        if (!store_) {
          store_ = std::make_unique<store::HashStore>(
              store::HashStore::kNeighborhood);
        }
        store_->put_u64(msg.op, msg.value);
        site.transport->send(protocol::make_put_ack(msg));
        return;
      }
      case MsgType::kGet: {
        trace_event(site, obs::TracePhase::kDelivered, msg);
        const auto v = store_ ? store_->get_u64(msg.value)
                              : std::optional<std::uint64_t>{};
        site.transport->send(
            protocol::make_get_reply(msg, v.has_value(), v.value_or(0)));
        return;
      }
      default:
        break;  // replies and acks: not ours
    }
  }

  [[nodiscard]] std::uint32_t load() const noexcept { return load_; }
  /// Placements that arrived carrying a load other than this node's
  /// current one: two-choice acting on stale information.
  [[nodiscard]] std::uint64_t stale_reads() const noexcept { return stale_; }
  /// Distinct keys with a stored value (== the store's live key count).
  [[nodiscard]] std::uint64_t keys_stored() const noexcept {
    return store_ ? store_->size() : 0;
  }

 private:
  /// Forward one greedy Chord hop unless the message has arrived
  /// (m.dest == self). Greedy routing strictly advances toward the key,
  /// so more than n forwards means the finger logic is broken: fail
  /// loudly instead of ricocheting messages forever.
  static bool route(const Site& site, Message& m) {
    if (m.dest == site.self) return true;
    if (m.hops >= site.ring->node_count()) {
      throw std::logic_error("NodeLogic: routing exceeded n hops (cycle?)");
    }
    m.from = site.self;
    ++m.hops;
    m.at = site.ring->next_hop(site.self, m.key);
    trace_event(site, obs::TracePhase::kForwarded, m);
    site.transport->send(m);
    return false;
  }

  static void trace_event(const Site& site, obs::TracePhase phase,
                          const Message& m) {
    if (site.trace == nullptr) return;
    obs::TraceRecord r;
    r.ts_us = static_cast<double>(site.transport->now_us());
    r.op = m.op;
    r.node = site.self;
    r.from = m.from;
    r.client = m.client;
    r.hops = m.hops;
    r.load = m.load;
    r.phase = phase;
    r.msg_type = static_cast<std::uint8_t>(m.type);
    site.trace->record(r);
  }

  void on_place(const Site& site, const Message& m) {
    trace_event(site, obs::TracePhase::kDelivered, m);
    if constexpr (!kSimulated<Transport>) {
      // At-most-once: a retransmitted kPlace (its ack was lost) must not
      // count the key twice — resend the ack and change nothing.
      if (!placed_.first_time(op_key(m.client, m.op))) {
        site.transport->send(protocol::make_place_ack(m));
        return;
      }
    }
    if (load_ != m.load) ++stale_;
    ++load_;
    site.transport->send(protocol::make_place_ack(m));
  }

  [[nodiscard]] static std::uint64_t op_key(std::uint32_t client,
                                            std::uint64_t op) noexcept {
    // op is a per-client sequence number; 2^40 ops per client is far past
    // any run this serves.
    return (static_cast<std::uint64_t>(client) << 40) ^ op;
  }

  /// The placements this node applied recently, bounded: anything old
  /// enough to be evicted is long past its client's retransmit horizon.
  struct PlacedMemory {
    static constexpr std::size_t kCapacity = 4096;
    std::unordered_set<std::uint64_t> keys;
    std::deque<std::uint64_t> fifo;

    /// Remember `key`; false if it was already remembered.
    bool first_time(std::uint64_t key) {
      if (!keys.insert(key).second) return false;
      fifo.push_back(key);
      while (fifo.size() > kCapacity) {
        keys.erase(fifo.front());
        fifo.pop_front();
      }
      return true;
    }
  };
  /// What only a simulated node leaves out: its own site (the simulator
  /// passes the shared one) and the at-most-once memory (a simulated
  /// transport delivers exactly once).
  template <typename Real>
  struct Nothing {};
  template <typename Real>
  using RealOnly =
      std::conditional_t<kSimulated<Transport>, Nothing<Real>, Real>;

  /// The node's value store, built on the first kPut.
  std::unique_ptr<store::HashStore> store_;
  std::uint32_t load_ = 0;
  std::uint32_t stale_ = 0;
  [[no_unique_address]] RealOnly<Site> site_;
  [[no_unique_address]] RealOnly<PlacedMemory> placed_;
};

/// What a finished run hands back. NetSimulator builds NetMetrics from it;
/// a cluster run reports it as measured on the wire.
struct DriverReport {
  /// Owner node of insert op i — the differential-test surface.
  std::vector<std::uint32_t> placements;
  /// Final load per node, read back by census probes after the workload
  /// (real transports only; the DES reads its node objects).
  std::vector<std::uint32_t> loads;
  std::uint32_t max_load = 0;
  /// Keys holding a value, summed over every node's census reply (real
  /// transports only).
  std::uint64_t keys_stored = 0;
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  /// Forwarding hops the insert probes took, summed over every candidate.
  std::uint64_t probe_hops = 0;
  /// Workload datagrams resent after a retransmit alarm (probe, place,
  /// lookup phases): actual suspected loss on the data path.
  std::uint64_t data_retransmits = 0;
  /// Census probes re-issued after their alarm. The census is a read-only
  /// poll of one node at a time — a retry costs a probe round-trip, never
  /// a duplicate placement — so it is accounted apart from data loss.
  std::uint64_t census_retries = 0;
  [[nodiscard]] std::uint64_t total_retransmits() const noexcept {
    return data_retransmits + census_retries;
  }
  /// Replies dropped without effect: duplicates of an answer already
  /// taken, stragglers for a finished op, or ones matching no op. Normal
  /// after retransmits over UDP; a simulated run must keep it at zero.
  std::uint64_t ignored_replies = 0;
  /// Store phase: value writes acknowledged, reads answered, and reads
  /// the owner missed (zero on any transport that delivers eventually —
  /// every get targets a key its put already stored).
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_misses = 0;
  /// Chord path length per lookup (protocol::route_hops_of).
  stats::RunningStats lookup_hops;
  stats::P2QuantileSet lookup_hops_q{{0.5, 0.9, 0.99}};
  /// Latencies in the transport's clock: microseconds on a real
  /// transport, simulated time units in the DES.
  stats::RunningStats insert_latency_us;
  stats::RunningStats lookup_latency_us;
  stats::RunningStats get_latency_us;
  stats::P2QuantileSet insert_latency_us_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet lookup_latency_us_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet get_latency_us_q{{0.5, 0.9, 0.99}};
};

struct DriverConfig {
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  int choices = 2;
  std::uint32_t window = 1;
  core::TieBreak tie = core::TieBreak::kFirstChoice;
  std::uint64_t seed = 0;
  std::uint64_t trial = 0;
  /// Store reads issued once every key has been put; 0 keeps the store
  /// phases — and the RNG draws their key sampling consumes — entirely
  /// out of the run, exactly like NetConfig::store_gets.
  std::uint64_t store_gets = 0;
  /// Zipf exponent of the read key popularity (0 = uniform).
  double store_zipf_alpha = 0.9;
  /// Retransmit alarm per in-flight op phase. Loopback never needs it;
  /// it exists so a dropped datagram stalls an op for milliseconds, not
  /// forever.
  std::uint64_t retransmit_ms = 50;
  /// Optional message-lifecycle recorder (not owned, may be null); the
  /// driver records scheduled/delivered/retransmitted events into it.
  obs::TraceRecorder* trace = nullptr;
};

/// The client half: drives the workload, then (on a real transport)
/// reads every node's final load back with census probes. Pump the
/// transport and feed replies to on_reply / fired timers to on_timer
/// until done().
template <typename Transport>
class ClientDriver {
 public:
  ClientDriver(const dht::ChordRing& ring, const DriverConfig& cfg,
               Transport& transport)
      : ring_(&ring),
        cfg_(cfg),
        transport_(&transport),
        candidates_(rng::make_stream(cfg.seed, cfg.trial,
                                     rng::StreamPurpose::kBallChoices)),
        ties_(rng::make_stream(cfg.seed, cfg.trial,
                               rng::StreamPurpose::kTieBreaking)),
        clients_(rng::make_stream(cfg.seed, cfg.trial,
                                  rng::StreamPurpose::kWorkload)) {
    if (cfg.choices < 1 || cfg.choices > kMaxChoices) {
      throw std::invalid_argument("ClientDriver: choices must be in [1, " +
                                  std::to_string(kMaxChoices) + "]");
    }
    if (cfg.window < 1) {
      throw std::invalid_argument("ClientDriver: window must be >= 1");
    }
    if (core::needs_region_measure(cfg.tie)) {
      throw std::invalid_argument(
          "ClientDriver: region-measure tie-breaks need arc sizes the wire "
          "does not carry");
    }
    report_.placements.assign(cfg.inserts, 0);
    // One slot per windowed op: after this the pools never allocate.
    insert_ops_.reserve(cfg.window);
    lookup_ops_.reserve(cfg.window);
    if (cfg.store_gets > 0) {
      if (cfg.inserts == 0) {
        throw std::invalid_argument(
            "ClientDriver: store gets need inserted keys to read");
      }
      store_keys_.emplace(
          rng::zipf_weights(cfg.inserts, cfg.store_zipf_alpha));
      store_ops_.reserve(cfg.window);
    }
  }

  /// Issue the first window. Call once, then pump the transport.
  void start() { advance(); }

  /// Every workload op has completed — and, on a real transport, the
  /// load census too.
  [[nodiscard]] bool done() const noexcept {
    if constexpr (kSimulated<Transport>) {
      return workload_done();
    } else {
      return census_got_ == ring_->node_count();
    }
  }

  /// The finished run's report; meaningful once done().
  [[nodiscard]] const DriverReport& report() const noexcept { return report_; }

  /// Handle one reply (kProbeReply / kPlaceAck / kLookupReply / kPutAck /
  /// kGetReply). Duplicates — a retransmitted request whose first answer
  /// also made it — are detected, counted in ignored_replies and dropped
  /// at every step; real networks deliver twice.
  void on_reply(const Message& m) {
    switch (m.type) {
      case MsgType::kProbeReply:
        if (m.probe == protocol::kCensusProbe) {
          on_census_reply(m);
        } else {
          on_probe_reply(m);
        }
        return;
      case MsgType::kPlaceAck:
        on_place_ack(m);
        return;
      case MsgType::kLookupReply:
        on_lookup_reply(m);
        return;
      case MsgType::kPutAck:
        on_put_ack(m);
        return;
      case MsgType::kGetReply:
        on_get_reply(m);
        return;
      default:
        ++report_.ignored_replies;  // a request echoed back: not ours
        return;
    }
  }

  /// A retransmit alarm fired: resend whatever the op is still waiting
  /// for. The timer payload carries the op's packed pool handle.
  void on_timer(const Message& t) {
    switch (t.type) {
      case MsgType::kProbe: {
        InsertOp* op = insert_ops_.try_get(InsertPool::Handle::unpack(t.slot));
        if (op == nullptr || op->op != t.op) return;  // op completed: stale
        resend_insert(*op, t.slot);
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kLookup: {
        LookupOp* op = lookup_ops_.try_get(LookupPool::Handle::unpack(t.slot));
        if (op == nullptr || op->op != t.op) return;
        ++report_.data_retransmits;
        const Message resend = protocol::make_lookup(
            op->client, op->op, op->key, ring_->successor(op->key), t.slot);
        trace_event(obs::TracePhase::kRetransmit, resend);
        transport_->send(resend);
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kPut: {
        StoreOp* op = store_ops_.try_get(StorePool::Handle::unpack(t.slot));
        if (op == nullptr || op->is_get || op->op != t.op) return;
        ++report_.data_retransmits;
        // Resending the identical put is safe: the owner overwrites with
        // the same bytes.
        const Message resend = protocol::make_put(
            op->client, owner_of(op->key_id), op->key_id,
            protocol::store_value(op->key_id), t.slot);
        trace_event(obs::TracePhase::kRetransmit, resend);
        transport_->send(resend);
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kGet: {
        StoreOp* op = store_ops_.try_get(StorePool::Handle::unpack(t.slot));
        if (op == nullptr || !op->is_get || op->op != t.op) return;
        ++report_.data_retransmits;
        const Message resend = protocol::make_get(
            op->client, op->op, owner_of(op->key_id), op->key_id, t.slot);
        trace_event(obs::TracePhase::kRetransmit, resend);
        transport_->send(resend);
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kProbeReply:  // the census alarm
        if (census_got_ < ring_->node_count() &&
            census_next_ > census_got_) {
          ++report_.census_retries;
          send_census(census_got_);
          arm_census_timer();
        }
        return;
      default:
        return;
    }
  }

 private:
  enum class Phase : std::uint8_t { kProbing, kPlacing };

  /// The transport's clock: simulated time in the DES, microseconds of
  /// CLOCK_MONOTONIC on a real transport. Latencies are differences of it.
  using Time =
      std::conditional_t<kSimulated<Transport>, SimTime, std::uint64_t>;

  struct InsertOp {
    Time start{};
    std::uint64_t op = 0;
    std::uint32_t client = 0;
    std::array<double, kMaxChoices> key{};
    std::array<std::uint32_t, kMaxChoices> owner{};
    std::array<std::uint32_t, kMaxChoices> load{};
    std::uint32_t replied = 0;  // bitmask over probe indices
    int replies = 0;
    Phase phase = Phase::kProbing;
    int best = 0;
    typename Transport::Timer timer{};
  };
  struct LookupOp {
    Time start{};
    std::uint64_t op = 0;
    std::uint32_t client = 0;
    double key = 0.0;
    typename Transport::Timer timer{};
  };
  /// One in-flight store op; puts and gets share the pool, the
  /// discriminator keeps a stale ack for one kind from matching a
  /// recycled slot holding the other.
  struct StoreOp {
    Time start{};
    std::uint64_t op = 0;      // put: the key id itself; get: read index
    std::uint64_t key_id = 0;
    std::uint32_t client = 0;
    bool is_get = false;
    typename Transport::Timer timer{};
  };
  using InsertPool = core::ObjectPool<InsertOp>;
  using LookupPool = core::ObjectPool<LookupOp>;
  using StorePool = core::ObjectPool<StoreOp>;

  [[nodiscard]] Time now() const noexcept {
    if constexpr (kSimulated<Transport>) {
      return transport_->now();
    } else {
      return transport_->now_us();
    }
  }

  /// The node a new op starts from. A real driver is one node and issues
  /// from itself; the DES hosts every node, so each op's client is one
  /// uniform draw from the workload substream, taken at issue time.
  [[nodiscard]] std::uint32_t origin() {
    if constexpr (kSimulated<Transport>) {
      return static_cast<std::uint32_t>(
          rng::uniform_below(clients_, ring_->node_count()));
    } else {
      return transport_->self();
    }
  }

  /// The op's latency so far, in the transport's clock.
  [[nodiscard]] double since(Time start) const noexcept {
    return static_cast<double>(now() - start);
  }

  void trace_event(obs::TracePhase phase, const Message& m) {
    if (cfg_.trace == nullptr) return;
    obs::TraceRecord r;
    r.ts_us = static_cast<double>(transport_->now_us());
    r.op = m.op;
    r.node = m.at;
    r.from = m.client;
    r.client = m.client;
    r.hops = m.hops;
    r.load = m.load;
    r.phase = phase;
    r.msg_type = static_cast<std::uint8_t>(m.type);
    cfg_.trace->record(r);
  }

  /// Send a request the client originates, recording it as scheduled.
  void send_request(const Message& m) {
    trace_event(obs::TracePhase::kScheduled, m);
    transport_->send(m);
  }

  /// Arm the retransmit alarm of the op in `slot`; `type` names the
  /// request it resends.
  [[nodiscard]] typename Transport::Timer arm(MsgType type, std::uint64_t op,
                                              std::uint64_t slot) {
    Message alarm;
    alarm.type = type;
    alarm.op = op;
    alarm.slot = slot;
    return transport_->schedule(cfg_.retransmit_ms, alarm);
  }

  [[nodiscard]] bool workload_done() const noexcept {
    return report_.inserts == cfg_.inserts &&
           report_.lookups == cfg_.lookups &&
           (cfg_.store_gets == 0 || (report_.puts == cfg_.inserts &&
                                     report_.gets == cfg_.store_gets));
  }

  void advance() {
    while (insert_ops_.live() < cfg_.window && next_insert_ < cfg_.inserts) {
      issue_insert();
    }
    // Lookups measure the settled ring: they start only once every insert
    // has been acknowledged.
    if (report_.inserts != cfg_.inserts) return;
    while (lookup_ops_.live() < cfg_.window && next_lookup_ < cfg_.lookups) {
      issue_lookup();
    }
    if (report_.lookups != cfg_.lookups) return;
    // The store phases run last: write every placed key's value to the
    // owner the placement phase recorded, then read keys back with Zipf
    // popularity against the fully written store.
    if (cfg_.store_gets > 0) {
      while (store_ops_.live() < cfg_.window && next_put_ < cfg_.inserts) {
        issue_put();
      }
      if (report_.puts != cfg_.inserts) return;
      while (store_ops_.live() < cfg_.window && next_get_ < cfg_.store_gets) {
        issue_get();
      }
      if (report_.gets != cfg_.store_gets) return;
    }
    // Workload drained. The DES reads loads from its node objects; a real
    // driver reads them back, one census probe in flight at a time, which
    // keeps the census trivially at-most-once.
    if constexpr (!kSimulated<Transport>) {
      if (census_next_ == census_got_ && census_next_ < ring_->node_count()) {
        send_census(census_next_++);
        arm_census_timer();
      }
    }
  }

  void issue_insert() {
    const auto handle = insert_ops_.emplace();
    const std::uint64_t slot = handle.pack();
    InsertOp& op = insert_ops_.get(handle);
    op.start = now();
    op.op = next_insert_++;
    op.client = origin();
    // Candidate keys drawn at issue time, in operation order — with
    // window = 1 exactly the run_process draw order.
    for (int j = 0; j < cfg_.choices; ++j) {
      op.key[static_cast<std::size_t>(j)] = rng::uniform01(candidates_);
    }
    for (int j = 0; j < cfg_.choices; ++j) {
      const double key = op.key[static_cast<std::size_t>(j)];
      send_request(protocol::make_probe(op.client, op.op,
                                        static_cast<std::uint8_t>(j), key,
                                        ring_->successor(key), slot));
    }
    op.timer = arm(MsgType::kProbe, op.op, slot);
  }

  void issue_lookup() {
    const auto handle = lookup_ops_.emplace();
    const std::uint64_t slot = handle.pack();
    LookupOp& op = lookup_ops_.get(handle);
    op.start = now();
    op.op = next_lookup_++;
    op.client = origin();
    op.key = rng::uniform01(candidates_);
    send_request(protocol::make_lookup(op.client, op.op, op.key,
                                       ring_->successor(op.key), slot));
    op.timer = arm(MsgType::kLookup, op.op, slot);
  }

  /// The node the placement phase recorded for `key_id` — the address
  /// every store op for that key goes to directly.
  [[nodiscard]] std::uint32_t owner_of(std::uint64_t key_id) const noexcept {
    return report_.placements[key_id];
  }

  void issue_put() {
    const auto handle = store_ops_.emplace();
    const std::uint64_t slot = handle.pack();
    StoreOp& op = store_ops_.get(handle);
    op.start = now();
    op.op = next_put_++;
    op.key_id = op.op;
    op.client = origin();
    send_request(protocol::make_put(op.client, owner_of(op.key_id), op.key_id,
                                    protocol::store_value(op.key_id), slot));
    op.timer = arm(MsgType::kPut, op.op, slot);
  }

  void issue_get() {
    const auto handle = store_ops_.emplace();
    const std::uint64_t slot = handle.pack();
    StoreOp& op = store_ops_.get(handle);
    op.start = now();
    op.op = next_get_++;
    // Key popularity drawn from the candidate stream at issue time, in
    // operation order.
    op.key_id = store_keys_->sample(candidates_);
    op.client = origin();
    op.is_get = true;
    send_request(protocol::make_get(op.client, op.op, owner_of(op.key_id),
                                    op.key_id, slot));
    op.timer = arm(MsgType::kGet, op.op, slot);
  }

  void resend_insert(const InsertOp& op, std::uint64_t slot) {
    ++report_.data_retransmits;
    if (op.phase == Phase::kProbing) {
      for (int j = 0; j < cfg_.choices; ++j) {
        if (op.replied & (1u << j)) continue;  // that reply already landed
        const double key = op.key[static_cast<std::size_t>(j)];
        const Message m = protocol::make_probe(
            op.client, op.op, static_cast<std::uint8_t>(j), key,
            ring_->successor(key), slot);
        trace_event(obs::TracePhase::kRetransmit, m);
        transport_->send(m);
      }
    } else {
      const auto bs = static_cast<std::size_t>(op.best);
      const Message m = protocol::make_place(
          op.client, op.op, static_cast<std::uint8_t>(op.best), op.owner[bs],
          op.load[bs], slot);
      trace_event(obs::TracePhase::kRetransmit, m);
      transport_->send(m);
    }
  }

  void on_probe_reply(const Message& m) {
    InsertOp* op = insert_ops_.try_get(InsertPool::Handle::unpack(m.slot));
    const std::uint32_t bit = m.probe < kMaxChoices ? 1u << m.probe : 0u;
    if (op == nullptr || op->op != m.op ||  // op already done
        op->phase != Phase::kProbing ||     // late straggler
        bit == 0 ||                         // corrupt index
        (op->replied & bit) != 0) {         // duplicate reply
      ++report_.ignored_replies;
      return;
    }
    op->replied |= bit;
    op->owner[m.probe] = m.from;
    op->load[m.probe] = m.load;
    report_.probe_hops += m.hops;
    if (++op->replies < cfg_.choices) return;

    // All d replies in: pick the least-loaded candidate. The loads are
    // reply-time snapshots — under a wide window they may already be
    // stale.
    op->best = protocol::pick_best_candidate(op->owner.data(), op->load.data(),
                                             cfg_.choices, cfg_.tie, ties_);
    op->phase = Phase::kPlacing;
    const auto bs = static_cast<std::size_t>(op->best);
    report_.placements[op->op] = op->owner[bs];
    send_request(protocol::make_place(m.client, m.op,
                                      static_cast<std::uint8_t>(op->best),
                                      op->owner[bs], op->load[bs], m.slot));
  }

  void on_place_ack(const Message& m) {
    const auto h = InsertPool::Handle::unpack(m.slot);
    InsertOp* op = insert_ops_.try_get(h);
    if (op == nullptr || op->op != m.op ||   // duplicate ack
        op->phase != Phase::kPlacing) {      // ack without a place?
      ++report_.ignored_replies;
      return;
    }
    trace_event(obs::TracePhase::kDelivered, m);
    if (transport_->armed(op->timer)) transport_->cancel(op->timer);
    const double latency = since(op->start);
    report_.insert_latency_us.add(latency);
    report_.insert_latency_us_q.add(latency);
    insert_ops_.release(h);
    ++report_.inserts;
    advance();
  }

  void on_lookup_reply(const Message& m) {
    const auto h = LookupPool::Handle::unpack(m.slot);
    LookupOp* op = lookup_ops_.try_get(h);
    if (op == nullptr || op->op != m.op) {  // duplicate reply
      ++report_.ignored_replies;
      return;
    }
    trace_event(obs::TracePhase::kDelivered, m);
    if (transport_->armed(op->timer)) transport_->cancel(op->timer);
    const double latency = since(op->start);
    const double route_hops = protocol::route_hops_of(m.hops);
    report_.lookup_hops.add(route_hops);
    report_.lookup_hops_q.add(route_hops);
    report_.lookup_latency_us.add(latency);
    report_.lookup_latency_us_q.add(latency);
    lookup_ops_.release(h);
    ++report_.lookups;
    advance();
  }

  void on_put_ack(const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    StoreOp* op = store_ops_.try_get(h);
    if (op == nullptr || op->is_get || op->op != m.op) {  // duplicate
      ++report_.ignored_replies;
      return;
    }
    trace_event(obs::TracePhase::kDelivered, m);
    if (transport_->armed(op->timer)) transport_->cancel(op->timer);
    store_ops_.release(h);
    ++report_.puts;
    advance();
  }

  void on_get_reply(const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    StoreOp* op = store_ops_.try_get(h);
    if (op == nullptr || !op->is_get || op->op != m.op) {  // duplicate
      ++report_.ignored_replies;
      return;
    }
    trace_event(obs::TracePhase::kDelivered, m);
    if (transport_->armed(op->timer)) transport_->cancel(op->timer);
    if (m.probe == 0) {
      ++report_.get_misses;
    } else if (m.value != protocol::store_value(op->key_id)) {
      // Every key was written before the read phase starts, and values
      // are a fixed function of the key: a wrong one is corruption.
      throw std::logic_error("ClientDriver: get returned a wrong value");
    }
    const double latency = since(op->start);
    report_.get_latency_us.add(latency);
    report_.get_latency_us_q.add(latency);
    store_ops_.release(h);
    ++report_.gets;
    advance();
  }

  void send_census(std::uint32_t node) {
    // successor(node_id(i)) == i: a probe keyed at the node's own ring
    // position lands exactly there. Probes mutate nothing server-side, so
    // census retransmits need no dedup.
    transport_->send(protocol::make_probe(transport_->self(), node,
                                          protocol::kCensusProbe,
                                          ring_->node_id(node), node, 0));
  }

  void arm_census_timer() {
    census_timer_ = arm(MsgType::kProbeReply, 0, 0);
    census_timer_armed_ = true;
  }

  void on_census_reply(const Message& m) {
    if (m.op != census_got_) {  // duplicate or out-of-order census
      ++report_.ignored_replies;
      return;
    }
    if (census_timer_armed_ && transport_->armed(census_timer_)) {
      transport_->cancel(census_timer_);
    }
    census_timer_armed_ = false;
    report_.loads.push_back(m.load);
    if (m.load > report_.max_load) report_.max_load = m.load;
    report_.keys_stored += m.value;
    ++census_got_;
    advance();
  }

  const dht::ChordRing* ring_;
  DriverConfig cfg_;
  Transport* transport_;
  rng::DefaultEngine candidates_;
  rng::DefaultEngine ties_;
  /// Client picks; drawn only by a simulated transport (see origin()).
  rng::DefaultEngine clients_;
  InsertPool insert_ops_;
  LookupPool lookup_ops_;
  StorePool store_ops_;
  /// Read-key popularity; engaged only when the store phases run.
  std::optional<rng::AliasTable> store_keys_;
  std::uint64_t next_insert_ = 0;
  std::uint64_t next_lookup_ = 0;
  std::uint64_t next_put_ = 0;
  std::uint64_t next_get_ = 0;
  std::uint32_t census_next_ = 0;
  std::uint32_t census_got_ = 0;
  typename Transport::Timer census_timer_{};
  bool census_timer_armed_ = false;
  DriverReport report_;
};

}  // namespace geochoice::net
