#include "net/simulator.hpp"

namespace geochoice::net {

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

NetMetrics NetSimulator::run() {
  begin_run();
  while (!queue().empty() && budget_left()) {
    execute(queue().pop());
  }
  return finish();
}

}  // namespace geochoice::net
