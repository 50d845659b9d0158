// simulator.hpp — a deterministic discrete-event simulator of a Chord DHT
// running the paper's two-choice insertion *over the wire*.
//
// Execution model. Simulated nodes sit on a ChordRing with finger tables
// (dht/chord.hpp). Every operation is a sequence of typed messages
// (message.hpp) scheduled on one calendar-queue EventQueue
// (event_queue.hpp); each link traversal costs one delay sampled from the
// configured LatencyModel (latency.hpp). Inserting a key means: a random
// client draws the key's d candidate positions, routes a probe to each
// candidate's successor along Chord fingers (one hop per forward), the
// owners reply with their *current* load, and once all d replies are
// back the client places the key at the least-loaded candidate with a
// direct message. Because other
// inserts are in flight, the loads a client acts on can be stale — the
// deployed-system effect the structural engines (core/) cannot express;
// `stale_reads` counts how often it happened. After the inserts drain, a
// measurement phase issues lookups to collect hop/latency percentiles.
//
// Determinism. The queue breaks time ties by schedule order, the
// simulation is single-threaded, and every random draw comes from a
// (seed, trial, purpose) substream:
//   node ids    <- kServerPlacement   candidates/keys <- kBallChoices
//   client picks<- kWorkload          link delays     <- kNetLatency
//   tie breaks  <- kTieBreaking
// so a (seed, config) pair fixes the entire event trace bit-for-bit
// regardless of host timing or thread count (tests pin a golden trace
// hash). In the latency -> 0 limit with window = 1, the message-level
// process collapses to exactly core::run_process over ChordSuccessorSpace
// (chord_space.hpp) — the validation hook tying the simulator back to the
// paper's allocation model.
//
// The protocol itself is not here: NetSimulator hosts one NodeLogic per
// ring node and one ClientDriver (node.hpp) over a shared SimTransport
// (transport.hpp) — the handlers a real node runs over UDP. What this
// file adds is the drive loop: pop an event, fold it into the trace hash,
// hand a request to its node and a reply to the driver, stop at the
// max_events budget, and build NetMetrics from the driver's report and
// the node objects once the workload completes. The DES's cost model
// (a free first hop, no timers) lives in SimTransport.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dht/chord.hpp"
#include "net/event_queue.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
// Exported: callers pair NetConfig::trace with obs::compiled_in/enabled.
#include "obs/registry.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/summary.hpp"

namespace geochoice::net {

struct NetConfig {
  /// Ring size n (only used by make_ring/simulate; a caller-supplied ring
  /// fixes n itself).
  std::size_t nodes = 1 << 8;
  /// Keys inserted via wire-level two-choice; 0 means keys = nodes.
  std::uint64_t keys = 0;
  /// Candidate positions per key (d >= 1, <= kMaxChoices).
  int choices = 2;
  /// Maximum insert (and later lookup) operations in flight. 1 serializes
  /// operations — the staleness-free baseline; larger windows let load
  /// replies go stale by the placements in flight.
  std::uint32_t window = 1;
  /// Tie-break among equal-load candidates. kFirstChoice and kLowestIndex
  /// replay run_process exactly; kRandom matches it in distribution (the
  /// draw comes from a dedicated substream). Region-measure ties would
  /// need arc sizes on the wire and are rejected.
  core::TieBreak tie = core::TieBreak::kRandom;
  LatencyModel latency = LatencyModel::constant(1.0);
  /// Measurement lookups issued after all inserts complete.
  std::uint64_t lookups = 0;
  /// Store workload: when > 0, after every insert is acknowledged and
  /// every lookup answered, the clients write one value per placed key
  /// (kPut, direct to the recorded owner, which builds its HashStore on
  /// the first one) and then issue this many Zipf-popular reads (kGet).
  /// 0 keeps the store machinery entirely out of the run: no extra RNG
  /// draws, no new message kinds, so pre-store golden trace hashes stay
  /// bit-exact.
  std::uint64_t store_gets = 0;
  /// Zipf exponent of the read key popularity (0 = uniform).
  double store_zipf_alpha = 0.9;
  std::uint64_t seed = 0x6e657473696d2121ULL;  // "netsim!!"
  std::uint64_t trial = 0;
  /// Record the full executed-event trace (tests; costs memory).
  bool collect_trace = false;
  /// Stop after executing this many events, leaving any remaining work —
  /// including in-flight operations — unexecuted. 0 means run to drain.
  /// Bounded runs are how tests tear the simulator down mid-flight.
  std::uint64_t max_events = 0;
  /// Optional message-lifecycle recorder (obs/trace.hpp); not owned, may
  /// be null. Recording reads message fields only — no RNG, no ordering
  /// effect — so golden trace hashes are identical with or without it.
  obs::TraceRecorder* trace = nullptr;

  [[nodiscard]] std::uint64_t insert_count() const noexcept {
    return keys == 0 ? static_cast<std::uint64_t>(nodes) : keys;
  }
};

/// Aggregate results of one simulation run.
struct NetMetrics {
  std::uint64_t events = 0;  // executed events (= delivered messages + local op starts)
  std::uint64_t links = 0;   // link traversals (the wire cost)
  std::array<std::uint64_t, kMsgTypeCount> links_by_type{};
  /// Total forwarding hops spent routing insert probes — the wire price of
  /// consulting d candidates before placing.
  std::uint64_t probe_hops = 0;
  /// Placements whose owner load had changed between the load reply and
  /// the placement's arrival (two-choice acting on stale information).
  std::uint64_t stale_reads = 0;
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  /// Store workload (zero unless cfg.store_gets > 0).
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_misses = 0;
  std::uint32_t max_load = 0;
  std::vector<std::uint32_t> loads;  // final keys per node (ring order)
  /// Owner node of every placed key, by insert op id — the map the store
  /// phase writes through and the serving harness replays. Recorded for
  /// every run (pure bookkeeping: no RNG, not hash-folded).
  std::vector<std::uint32_t> placements;
  /// Chord path length per lookup: forwards excluding the final delivery
  /// hop onto the owner (the node before it already resolved the query).
  /// Mean ~ 1/2 * log2(n); the full wire path is one hop longer.
  stats::RunningStats lookup_hops;
  stats::RunningStats insert_latency;
  stats::RunningStats lookup_latency;
  stats::RunningStats get_latency;
  stats::P2QuantileSet lookup_hops_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet insert_latency_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet lookup_latency_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet get_latency_q{{0.5, 0.9, 0.99}};
  SimTime end_time = 0.0;
  /// FNV-1a fold of every executed event (time, message fields): the
  /// golden-trace fingerprint the determinism tests pin.
  std::uint64_t trace_hash = 0xcbf29ce484222325ULL;
};

/// One executed event, for full-trace comparisons in tests.
struct TraceEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  Message msg;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class NetSimulator {
 public:
  /// `ring` must outlive the simulator and must have finger tables built.
  NetSimulator(const dht::ChordRing& ring, const NetConfig& cfg);

  // The nodes and the driver hold pointers to the transport member.
  NetSimulator(const NetSimulator&) = delete;
  NetSimulator& operator=(const NetSimulator&) = delete;

  /// Run the full simulation (inserts, then lookups, then the store
  /// phases) to completion, or until cfg.max_events. Single-shot: a
  /// simulator instance cannot be rerun. Throws std::logic_error if the
  /// event queue drains before the workload completes, or if the driver
  /// had to drop a reply: the DES delivers every message exactly once.
  NetMetrics run();

  /// Executed-event trace (empty unless cfg.collect_trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }

  /// Random ring of cfg.nodes with fingers, from the run's
  /// kServerPlacement substream — the ring simulate() uses.
  [[nodiscard]] static dht::ChordRing make_ring(const NetConfig& cfg);

  /// make_ring + run in one call.
  [[nodiscard]] static NetMetrics simulate(const NetConfig& cfg);

 private:
  void execute(const MessageQueue::Event& e);
  [[nodiscard]] bool budget_left() const noexcept {
    return cfg_.max_events == 0 || metrics_.events < cfg_.max_events;
  }
  NetMetrics finish();

  NetConfig cfg_;
  SimTransport transport_;
  /// What every node shares — ring, transport, trace recorder — with
  /// `self` set to the node serving the current event.
  NodeSite<SimTransport> site_;
  std::vector<NodeLogic<SimTransport>> nodes_;
  ClientDriver<SimTransport> driver_;
  NetMetrics metrics_;
  std::vector<TraceEvent> trace_;
  bool ran_ = false;
};

}  // namespace geochoice::net
