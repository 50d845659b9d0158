// selftest.cpp — proof that every output check can fail.
//
// Small genuine runs of each workload's front door must pass their check;
// the same results with one injected fault — a wrong max load, a dropped
// get, a missed get, a mismatched placement — must not.
#include <cstdio>
#include <string>

#include "net/simulator.hpp"
#include "sim/net_experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gc = geochoice;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what, const std::string& why) {
  std::printf("self-test: %-48s %s%s\n", what.c_str(), ok ? "ok" : "FAILED",
              why.empty() ? "" : ("  (" + why + ")").c_str());
  if (!ok) ++failures;
}
void expect_pass(const std::string& what, const std::string& why) {
  expect(why.empty(), what + " passes", why);
}
void expect_trip(const std::string& what, const std::string& why) {
  expect(!why.empty(), what + " trips", why);
}

/// `h` with one trial's max load raised by one.
[[nodiscard]] gc::stats::IntHistogram wrong_max_load(
    const gc::stats::IntHistogram& h) {
  gc::stats::IntHistogram out;
  bool moved = false;
  for (const auto& [value, count] : h.items()) {
    if (!moved) {
      out.add(value, count - 1);
      out.add(value + 1, 1);
      moved = true;
    } else {
      out.add(value, count);
    }
  }
  return out;
}

void structural() {
  for (const auto space : {gc::sim::SpaceKind::kRing, gc::sim::SpaceKind::kTorus}) {
    gc::sim::Scenario sc;
    sc.space = space;
    sc.num_servers = 512;
    sc.trials = 8;
    sc.tie = gc::core::TieBreak::kFirstChoice;
    sc.seed = 7;
    auto r = gc::sim::run(sc);
    const std::string name(gc::sim::to_string(space));
    expect_pass(name + " structural check", check_structural(sc, r));
    r.max_load = wrong_max_load(r.max_load);
    expect_trip(name + " structural check, wrong max load",
                check_structural(sc, r));
  }
}

void wire() {
  gc::sim::Scenario sc;
  sc.model = gc::sim::ExecModel::kWire;
  sc.space = gc::sim::SpaceKind::kChordNet;
  sc.num_servers = 256;
  sc.num_balls = 4096;
  sc.window = 16;
  sc.latency = gc::net::LatencyModel::uniform(0.5, 1.5);
  sc.lookups = 1024;
  sc.trials = 1;
  sc.tie = gc::core::TieBreak::kFirstChoice;
  sc.seed = 7;
  const auto front = gc::sim::run(sc);
  auto cfg = gc::sim::net_scenario_config(sc).net;
  cfg.trial = 0;
  const auto seq = gc::net::NetSimulator::simulate(cfg);
  expect_pass("wire check", check_wire(front, seq));

  auto bad_front = front;
  bad_front.max_load = wrong_max_load(front.max_load);
  expect_trip("wire check, wrong max load", check_wire(bad_front, seq));

  auto bad_seq = seq;
  bad_seq.placements[0] = (bad_seq.placements[0] + 1) %
                          static_cast<std::uint32_t>(bad_seq.loads.size());
  expect_trip("wire check, mismatched placement", check_wire(front, bad_seq));
}

void kv() {
  gc::net::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.driver.inserts = 2000;
  cfg.driver.lookups = 200;
  cfg.driver.store_gets = 2000;
  cfg.driver.window = 16;
  cfg.driver.tie = gc::core::TieBreak::kFirstChoice;
  cfg.driver.seed = 7;
  const auto r = gc::net::run_loopback_cluster(cfg);
  expect_pass("kv check", check_kv(cfg, r));

  auto dropped = r;
  --dropped.report.gets;
  expect_trip("kv check, dropped get", check_kv(cfg, dropped));

  auto missed = r;
  missed.report.get_misses = 1;
  expect_trip("kv check, get that missed its key", check_kv(cfg, missed));

  auto moved = r;
  moved.report.placements[0] =
      (moved.report.placements[0] + 1) % static_cast<std::uint32_t>(cfg.nodes);
  expect_trip("kv check, mismatched placement", check_kv(cfg, moved));
}

}  // namespace

int self_test() {
  structural();
  wire();
  kv();
  std::printf("self-test: %s\n", failures == 0 ? "all checks pass on genuine "
                                                 "results and trip on injected "
                                                 "faults"
                                               : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
