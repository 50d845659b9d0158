// net_throughput — event-rate of the discrete-event network simulator.
//
// The DES engine is a different beast from the allocation engines: its
// unit of work is an executed event (one delivered message), and the
// interesting regression is the event loop sliding from O(log) heap work
// into something accidentally linear. This bench times the message-level
// two-choice insertion (constant latency, windowed) and reports
//
//   * events_per_sec       — raw simulator event rate (also a results row,
//                            so the per-event ns shows next to per-insert),
//   * inserts_per_sec      — end-to-end wire-insert throughput,
//   * net_vs_structural    — wire inserts/sec over TwoChoiceDht::insert
//                            (the structural engine doing the same probes
//                            without messages); machine-independent, so
//                            it is the metric bench/baseline.json floors.
//   * make_ring_ns_per_node_2p14 / _2p20
//                          — NetSimulator::make_ring (draw ids, build the
//                            ring, fingers and hop rows) per node: the
//                            set-up every wire and cluster run pays
//                            (2^20 is skipped under --quick: null),
//   * ring_build_speedup   — the reference build (std::sort, a binary
//                            search per finger, a sorted hop row per node;
//                            tests/support/chord_reference.hpp) over
//                            ChordRing's, same ids, at 2^14: the median of
//                            interleaved pairs, so machine-independent and
//                            floored too.
//
// Usage: net_throughput [--out FILE] [--n N] [--m M] [--quick]
//   --out FILE   JSON output path (default BENCH_net.json)
//   --n N        ring nodes (default 16384 = 2^14)
//   --m M        keys inserted (default 65536 = 2^16)
//   --quick      small deterministic sizes + fewer reps for the CI smoke
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dht/dht.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"
#include "support/chord_reference.hpp"

namespace gb = geochoice::bench;
namespace gd = geochoice::dht;
namespace gn = geochoice::net;
namespace go = geochoice::obs;
namespace gr = geochoice::rng;
namespace gt = geochoice::testing;

namespace {

/// Wall seconds of one run of fn.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = gb::Clock::now();
  fn();
  return std::chrono::duration<double>(gb::Clock::now() - t0).count();
}

/// Median wall seconds of `reps` runs of fn.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) secs.push_back(seconds_of(fn));
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

/// NetSimulator::make_ring at n nodes, ns per node.
double make_ring_ns_per_node(std::size_t n, int reps) {
  gn::NetConfig cfg;
  cfg.nodes = n;
  const double s = median_seconds(reps, [&] {
    if (gn::NetSimulator::make_ring(cfg).node_count() != n) std::abort();
  });
  return s * 1e9 / static_cast<double>(n);
}

/// Reference ring build time over ChordRing's on the same ids: the median
/// of `pairs` interleaved (reference, ChordRing) pairs, so drift between
/// the two timings cancels.
double ring_build_speedup(std::size_t n, int pairs) {
  gr::DefaultEngine gen(7);
  std::vector<double> ids(n);
  for (double& id : ids) id = gr::uniform01(gen);
  int fingers = 0;
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    const double fast = seconds_of([&] {
      gd::ChordRing ring(ids);
      ring.build_fingers();
      fingers = ring.fingers_per_node();
    });
    const double ref = seconds_of([&] {
      std::vector<double> copy = ids;
      if (gt::reference_chord_build(copy, fingers).fingers.empty()) {
        std::abort();
      }
    });
    ratios.push_back(ref / fast);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_net.json");
  std::uint64_t n = args.get_u64("n", 1ull << 14);
  std::uint64_t m = args.get_u64("m", 1ull << 16);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) {
    n = 1ull << 10;
    m = 1ull << 13;
  }
  const int warmup = 1;
  const int reps = quick ? 5 : 7;

  gn::NetConfig cfg;
  cfg.nodes = static_cast<std::size_t>(n);
  cfg.keys = m;
  cfg.choices = 2;
  cfg.window = 16;
  cfg.latency = gn::LatencyModel::constant(1.0);
  const auto ring = gn::NetSimulator::make_ring(cfg);

  std::vector<gb::Measurement> ms;

  // --- message-level two-choice over the DES.
  std::uint64_t events = 0;
  ms.push_back(gb::measure("NetTwoChoice/wire", m, warmup, reps, [&] {
    gn::NetSimulator sim(ring, cfg);
    const auto r = sim.run();
    events = r.events;
    if (r.max_load == 0) std::abort();
  }));
  const double inserts_per_sec = ms.back().items_per_sec;
  const double events_per_sec =
      inserts_per_sec * static_cast<double>(events) / static_cast<double>(m);
  // Same wall time re-expressed per executed event: the DES-loop row.
  gb::Measurement ev_row;
  ev_row.name = "NetTwoChoice/events";
  ev_row.items_per_sec = events_per_sec;
  ev_row.ns_per_item = 1e9 / events_per_sec;
  ms.push_back(ev_row);

  // --- obs overhead: the identical run with the registry live (runtime
  // toggle on, counters recording, no trace recorder — the "--obs with
  // nobody watching" configuration). The zero-cost-when-off design claim,
  // floored in bench/baseline.json. Machine drift on shared runners swamps
  // the ~1% effect a single A/B comparison sees, so the ratio is the
  // median of three interleaved off/on pairs: each pair compares adjacent
  // runs (drift cancels) and the median rejects an outlier pair.
  const auto wire_once = [&] {
    gn::NetSimulator sim(ring, cfg);
    if (sim.run().max_load == 0) std::abort();
  };
  double obs_ratios[3];
  gb::Measurement obs_row;
  for (double& ratio : obs_ratios) {
    const auto off = gb::measure("NetTwoChoice/wire", m, 0, reps,
                                 wire_once);
    go::set_enabled(true);
    obs_row = gb::measure("NetTwoChoice/wire+obs", m, 0, reps, wire_once);
    go::set_enabled(false);
    ratio = obs_row.items_per_sec / off.items_per_sec;
  }
  std::sort(std::begin(obs_ratios), std::end(obs_ratios));
  const double obs_overhead = go::compiled_in() ? obs_ratios[1] : 1.0;
  ms.push_back(obs_row);

  // --- structural baseline: same probes, no messages.
  ms.push_back(gb::measure("TwoChoiceDht/structural", m, warmup, reps, [&] {
    gr::DefaultEngine gen(42);
    gd::TwoChoiceDht dht(ring, cfg.choices);
    for (std::uint64_t k = 0; k < m; ++k) (void)dht.insert(gen);
    if (dht.max_load() == 0) std::abort();
  }));
  const double structural_per_sec = ms.back().items_per_sec;
  const double net_vs_structural = inserts_per_sec / structural_per_sec;

  // --- ring construction.
  const double ring_ns_2p14 = make_ring_ns_per_node(1u << 14, reps);
  // The 2^20 ring (~350 MB of tables) is a record, not a gate: full runs
  // only, --quick writes null.
  char ring_2p20[32] = "null";
  if (!quick) {
    std::snprintf(ring_2p20, sizeof(ring_2p20), "%.1f",
                  make_ring_ns_per_node(1u << 20, 3));
  }
  const double ring_speedup = ring_build_speedup(1u << 14, reps);

  std::printf("%-28s %15s %12s\n", "benchmark", "items/sec", "ns/item");
  for (const auto& r : ms) {
    std::printf("%-28s %15.0f %12.2f\n", r.name.c_str(), r.items_per_sec,
                r.ns_per_item);
  }
  std::printf("\nevents/sec (DES loop)      : %.0f\n", events_per_sec);
  std::printf("net / structural inserts   : %.3fx\n", net_vs_structural);
  std::printf("obs enabled / obs off      : %.3fx\n", obs_overhead);
  std::printf("make_ring ns/node, 2^14    : %.1f\n", ring_ns_2p14);
  std::printf("make_ring ns/node, 2^20    : %s\n", ring_2p20);
  std::printf("ring build reference / new : %.3fx\n", ring_speedup);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"net_throughput\",\n";
  char cfg_buf[256];
  std::snprintf(cfg_buf, sizeof(cfg_buf),
                "  \"config\": {\"n\": %llu, \"m\": %llu, \"d\": %d, "
                "\"window\": %u, \"latency\": \"%s\", \"quick\": %s},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(m), cfg.choices, cfg.window,
                std::string(gn::to_string(cfg.latency.kind)).c_str(),
                quick ? "true" : "false");
  json += cfg_buf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "insert", i + 1 == ms.size());
  }
  json += "  ],\n";
  char tail[768];
  std::snprintf(tail, sizeof(tail),
                "  \"events_per_sec\": %.1f,\n"
                "  \"inserts_per_sec\": %.1f,\n"
                "  \"net_vs_structural\": %.4f,\n"
                "  \"obs_overhead\": %.4f,\n"
                "  \"make_ring_ns_per_node_2p14\": %.1f,\n"
                "  \"make_ring_ns_per_node_2p20\": %s,\n"
                "  \"ring_build_speedup\": %.4f\n}\n",
                events_per_sec, inserts_per_sec, net_vs_structural,
                obs_overhead, ring_ns_2p14, ring_2p20, ring_speedup);
  json += tail;

  return gb::write_json_or_fail(out_path, json);
}
