// simulator.hpp — a deterministic discrete-event simulator of a Chord DHT
// running the paper's two-choice insertion *over the wire*.
//
// Execution model. Simulated nodes sit on a ChordRing with finger tables
// (dht/chord.hpp). Every operation is a sequence of typed messages
// (message.hpp) scheduled on one calendar-queue EventQueue
// (event_queue.hpp); each link traversal costs one delay sampled from the
// configured LatencyModel (latency.hpp). In-flight insert/lookup records
// live in core::ObjectPool slabs and messages carry their packed slot
// handles, so the steady-state event loop runs allocation-free with no
// per-op map lookups. Inserting a key means: a random client draws the key's d
// candidate positions, routes a probe to each candidate's successor along
// Chord fingers (one hop per forward), the owners reply with their
// *current* load, and once all d replies are back the client places the
// key at the least-loaded candidate with a direct message. Because other
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
// All simulation state and handlers live in SimCore (sim_core.hpp);
// NetSimulator contributes the drive loop.
#pragma once

#include <cstdint>

#include "net/sim_core.hpp"

namespace geochoice::net {

class NetSimulator : public SimCore {
 public:
  /// `ring` must outlive the simulator and must have finger tables built.
  NetSimulator(const dht::ChordRing& ring, const NetConfig& cfg)
      : SimCore(ring, cfg) {}

  /// Run the full simulation (inserts, then lookups) to completion.
  /// Single-shot: a simulator instance cannot be rerun.
  NetMetrics run();

  /// Random ring of cfg.nodes with fingers, from the run's
  /// kServerPlacement substream — the ring simulate() uses.
  [[nodiscard]] static dht::ChordRing make_ring(const NetConfig& cfg);

  /// make_ring + run in one call.
  [[nodiscard]] static NetMetrics simulate(const NetConfig& cfg);
};

}  // namespace geochoice::net
