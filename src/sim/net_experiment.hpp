// net_experiment.hpp — a compatibility bridge, kept only for perfbench/.
//
// The benchmark under perfbench/ is frozen, and its programs still spell
// the Scenario -> net::NetConfig mapping as net_scenario_config(sc).net.
// That spelling is the only reason this header exists: nothing else
// includes it. New code calls sim::wire_net_config and runs wire
// experiments through sim::run.
#pragma once

#include "net/simulator.hpp"
#include "sim/scenario.hpp"

namespace geochoice::sim {

struct NetScenarioConfig {
  net::NetConfig net;
};

[[nodiscard]] inline NetScenarioConfig net_scenario_config(
    const Scenario& sc) {
  return {wire_net_config(sc)};
}

}  // namespace geochoice::sim
