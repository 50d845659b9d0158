// net_experiment.hpp — multi-trial scenarios for the network simulator.
//
// One NetScenarioConfig describes a message-level experiment: the per-trial
// net::NetConfig (ring size, keys, d, insert window, latency model,
// measurement lookups) plus a trial count. Trials run in parallel with the
// usual per-trial substream seeding, so results are bit-identical for any
// thread count; percentile columns aggregate the per-trial P² estimates by
// averaging (each trial's estimator sees that trial's full stream).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/simulator.hpp"
#include "stats/histogram.hpp"

namespace geochoice::sim {

struct NetScenarioConfig {
  /// Per-trial simulation parameters; `trial` is overwritten per trial.
  net::NetConfig net;
  std::uint64_t trials = 20;
  std::size_t threads = 0;  // 0 = hardware concurrency
  /// Optional message-lifecycle recorder (not owned, may be null). Only
  /// trial 0 records into it: trials run on a thread pool and the ring
  /// buffer is single-writer, so one representative trial is traced.
  obs::TraceRecorder* trace = nullptr;
};

struct NetScenarioResult {
  /// Distribution of the max keys-per-node over trials (the paper's
  /// headline statistic, now measured over the wire).
  stats::IntHistogram max_load;
  double mean_lookup_hops = 0.0;
  double lookup_hops_p50 = 0.0;
  double lookup_hops_p90 = 0.0;
  double lookup_hops_p99 = 0.0;
  double insert_latency_p50 = 0.0;
  double insert_latency_p90 = 0.0;
  double insert_latency_p99 = 0.0;
  double lookup_latency_p50 = 0.0;
  double lookup_latency_p90 = 0.0;
  double lookup_latency_p99 = 0.0;
  /// Wire cost: mean link traversals and probe-routing hops per insert.
  double links_per_insert = 0.0;
  double probe_hops_per_insert = 0.0;
  /// Fraction of placements that acted on a stale load reply.
  double stale_fraction = 0.0;
  double mean_events = 0.0;
  double mean_end_time = 0.0;
  /// Wall seconds of each trial's NetSimulator::simulate call (ring build
  /// included), indexed by trial.
  std::vector<double> trial_seconds;
};

/// Run the scenario's trials in parallel (deterministic in the seed).
[[nodiscard]] NetScenarioResult run_net_scenario(const NetScenarioConfig& cfg);

struct Scenario;
struct RunReport;

/// Bridge from the unified front door (scenario.hpp): the NetScenarioConfig
/// a wire-model Scenario denotes — n/m/d/tie plus the net knobs (latency,
/// window, lookups). sim::run dispatches through this, so
/// `run(sc)` and `run_net_scenario(net_scenario_config(sc))` are the same
/// run bit-for-bit.
[[nodiscard]] NetScenarioConfig net_scenario_config(const Scenario& sc);

/// The reverse bridge for reporting: rebuild the flat NetScenarioResult
/// from a wire-model RunReport (histogram + WireMetrics), so net_csv_row
/// and render_net_summary keep working on front-door runs.
[[nodiscard]] NetScenarioResult net_scenario_result(const RunReport& report);

/// Human-readable report: config echo, wire/latency metric table, and the
/// paper-style max-load distribution block.
[[nodiscard]] std::string render_net_summary(const NetScenarioConfig& cfg,
                                             const NetScenarioResult& r);

/// CSV schema shared by `net_sim --csv` (one row per run) and
/// `net_sim --sweep` (one row per grid cell): config echo plus the
/// wire/staleness/max-load metrics the stale-information study charts.
[[nodiscard]] std::vector<std::string> net_csv_header();
[[nodiscard]] std::vector<std::string> net_csv_row(
    const NetScenarioConfig& cfg, const NetScenarioResult& r);

}  // namespace geochoice::sim
