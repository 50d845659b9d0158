// workloads.hpp — the benchmark's workloads and their output checks.
//
// Each run_* function sets up, times repeated calls into geochoice's
// public front doors for opt.seconds, checks the outputs, and (with
// opt.trace) adds the per-layer breakdown from a separate traced pass.
// Each check_* function returns an empty string when an output is
// correct and the reason otherwise; the self-test feeds them injected
// wrong results to show that they trip.
#pragma once

#include <string>

#include "common.hpp"
#include "net/cluster.hpp"
#include "net/simulator.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

[[nodiscard]] Result run_paper_trials(const Options& opt);
[[nodiscard]] Result run_wire_des(const Options& opt);
[[nodiscard]] Result run_udp_kv(const Options& opt);

/// Structural runs with a deterministic tie-break: the front door's
/// max-load histogram must equal the scalar oracle core::run_process
/// replayed on every trial's (seed, trial, purpose) streams.
[[nodiscard]] std::string check_structural(const geochoice::sim::Scenario& sc,
                                           const geochoice::sim::RunReport& r);

/// A one-trial wire run through the front door against the sequential
/// NetSimulator on the same config: max load, event, link, hop and
/// staleness counts and the end time must be equal, and the sequential
/// run's placements must add up to its census loads.
[[nodiscard]] std::string check_wire(const geochoice::sim::RunReport& front,
                                     const geochoice::net::NetMetrics& seq);

/// A loopback cluster run: every op acked, no get missed, every key
/// stored, no malformed frame, and the client's placements add up to the
/// loads the census read back from the nodes.
[[nodiscard]] std::string check_kv(const geochoice::net::ClusterConfig& cfg,
                                   const geochoice::net::ClusterResult& r);

/// Runs small genuine instances of every workload, then shows that each
/// check passes on them and trips on an injected wrong result. Returns
/// the process exit code.
[[nodiscard]] int self_test();

}  // namespace perfbench
