// experiment.hpp — the historical max-load experiment API, now a thin
// shim over the sim::Scenario front door (scenario.hpp).
//
// ExperimentConfig predates Scenario and maps onto it field-for-field
// (same names, same defaults); to_scenario() is the migration in code
// form. run_max_load_experiment() pins the historical semantics — the
// scalar engine over the trial streams it has always used — so every
// golden value stays bit-identical. New code should construct a
// Scenario directly: it reaches both engines and all six spaces.
#pragma once

#include <cstdint>

#include "core/process.hpp"
#include "sim/scenario.hpp"
#include "stats/histogram.hpp"

namespace geochoice::sim {

struct ExperimentConfig {
  SpaceKind space = SpaceKind::kRing;
  std::uint64_t num_servers = 1 << 8;  // n
  std::uint64_t num_balls = 0;         // m; 0 means m = n
  int num_choices = 2;                 // d
  core::TieBreak tie = core::TieBreak::kRandom;
  core::ChoiceScheme scheme = core::ChoiceScheme::kIndependent;
  std::uint64_t trials = 100;
  std::uint64_t seed = 0x67656f63686f6963ULL;  // "geochoic"
  std::size_t threads = 0;                     // 0 = hardware concurrency

  [[nodiscard]] std::uint64_t balls() const noexcept {
    return num_balls == 0 ? num_servers : num_balls;
  }
};

/// The equivalent Scenario. Engine is pinned to kScalar — the engine the
/// pre-Scenario runner always used — so results are bit-compatible with
/// every histogram this API ever produced.
[[nodiscard]] inline Scenario to_scenario(const ExperimentConfig& cfg) {
  Scenario sc;
  sc.space = cfg.space;
  sc.num_servers = cfg.num_servers;
  sc.num_balls = cfg.num_balls;
  sc.num_choices = cfg.num_choices;
  sc.tie = cfg.tie;
  sc.scheme = cfg.scheme;
  sc.trials = cfg.trials;
  sc.seed = cfg.seed;
  sc.threads = cfg.threads;
  sc.engine = Engine::kScalar;
  return sc;
}

/// Distribution of max load over the configured trials
/// (= run(to_scenario(cfg)).max_load).
[[nodiscard]] stats::IntHistogram run_max_load_experiment(
    const ExperimentConfig& cfg);

/// Mean maximum load over trials (convenience for scaling sweeps).
[[nodiscard]] double mean_max_load(const ExperimentConfig& cfg);

}  // namespace geochoice::sim
