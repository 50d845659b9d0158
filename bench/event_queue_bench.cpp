// event_queue_bench — calendar queue vs reference binary heap.
//
// Drives both schedulers through the classic hold model (fixed event
// population; each step pops the minimum and schedules a successor a
// random increment later — exactly the access pattern a DES steady state
// produces) at a DES-like population and at a large one, plus an
// all-simultaneous flood (the calendar's worst bucket case). The gated
// metric is calendar_vs_heap: the hold-model event rate of the calendar
// EventQueue over HeapEventQueue in the same process, machine-independent
// the way the other floored ratios are.
//
// Usage: event_queue_bench [--out FILE] [--ops N] [--quick]
//   --out FILE   JSON output path (default BENCH_event_queue.json)
//   --ops N      hold operations per measurement (default 2000000)
//   --quick      fewer ops + reps for the CI smoke
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "net/event_queue.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"

namespace gb = geochoice::bench;
namespace gn = geochoice::net;
namespace gr = geochoice::rng;

namespace {

/// One hold-model run: prefill `population` events, then `ops`
/// pop-one/push-one steps with uniform increments. The payload mimics the
/// simulator's Message footprint so copy costs are realistic.
struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double c = 0.0;
  std::uint64_t d = 0;
  std::uint64_t e = 0;
  std::uint64_t f = 0;
};

template <typename Queue>
double hold(std::size_t population, std::uint64_t ops, std::uint64_t seed) {
  Queue q;
  gr::DefaultEngine gen(seed);
  for (std::size_t i = 0; i < population; ++i) {
    q.push(gr::uniform01(gen), Payload{i, i, 0.0, i, i, i});
  }
  double sink = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    auto ev = q.pop();
    sink += ev.time;
    q.push(ev.time + gr::uniform01(gen), std::move(ev.payload));
  }
  return sink;
}

template <typename Queue>
double flood(std::size_t events) {
  Queue q;
  double sink = 0.0;
  for (std::size_t i = 0; i < events; ++i) {
    q.push(1.0, Payload{i, i, 0.0, i, i, i});
  }
  while (!q.empty()) sink += static_cast<double>(q.pop().payload.a);
  return sink;
}

}  // namespace

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path =
      args.get_string("out", "BENCH_event_queue.json");
  const bool ops_given = args.has("ops");
  std::uint64_t ops = args.get_u64("ops", 2000000);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick && !ops_given) ops = 400000;  // an explicit --ops wins
  const int warmup = 1;
  const int reps = quick ? 3 : 5;
  // The DES-like population: net_throughput's default window keeps on the
  // order of 10^2 messages parked; 4096 covers the large-scenario regime
  // where the heap's O(log n) actually bites.
  const std::size_t kSmall = 96, kLarge = 4096;
  const std::size_t hw = std::thread::hardware_concurrency();

  std::vector<gb::Measurement> ms;
  double sink = 0.0;
  auto run_pair = [&](const char* tag, std::size_t population) {
    ms.push_back(gb::measure(std::string("calendar/hold/") + tag, ops,
                             warmup, reps, [&] {
                               sink += hold<gn::EventQueue<Payload>>(
                                   population, ops, 42);
                             }));
    const double cal = ms.back().items_per_sec;
    ms.push_back(gb::measure(std::string("heap/hold/") + tag, ops, warmup,
                             reps, [&] {
                               sink += hold<gn::HeapEventQueue<Payload>>(
                                   population, ops, 42);
                             }));
    return cal / ms.back().items_per_sec;
  };

  const double speedup_small = run_pair("small", kSmall);
  const double speedup_large = run_pair("large", kLarge);

  const std::uint64_t flood_events = quick ? 100000 : 400000;
  ms.push_back(gb::measure("calendar/flood", flood_events, warmup, reps,
                           [&] {
                             sink += flood<gn::EventQueue<Payload>>(
                                 static_cast<std::size_t>(flood_events));
                           }));
  const double cal_flood = ms.back().items_per_sec;
  ms.push_back(gb::measure("heap/flood", flood_events, warmup, reps, [&] {
    sink += flood<gn::HeapEventQueue<Payload>>(
        static_cast<std::size_t>(flood_events));
  }));
  const double flood_speedup = cal_flood / ms.back().items_per_sec;
  if (sink == 0.0) std::abort();  // keep the optimizer honest

  std::printf("%-28s %15s %12s\n", "benchmark", "events/sec", "ns/event");
  for (const auto& r : ms) {
    std::printf("%-28s %15.0f %12.2f\n", r.name.c_str(), r.items_per_sec,
                r.ns_per_item);
  }
  std::printf("\ncalendar / heap (hold, %4zu): %.2fx\n", kSmall,
              speedup_small);
  std::printf("calendar / heap (hold, %4zu): %.2fx\n", kLarge, speedup_large);
  std::printf("calendar / heap (flood)     : %.2fx\n", flood_speedup);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"event_queue_bench\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"ops\": %llu, \"small\": %zu, \"large\": "
                "%zu, \"quick\": %s},\n",
                static_cast<unsigned long long>(ops), kSmall, kLarge,
                quick ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof(buf), "  \"hw_threads\": %zu,\n", hw);
  json += buf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "event", i + 1 == ms.size());
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"calendar_vs_heap\": %.4f,\n"
                "  \"calendar_vs_heap_large\": %.4f,\n"
                "  \"calendar_vs_heap_flood\": %.4f\n}\n",
                speedup_small, speedup_large, flood_speedup);
  json += buf;

  return gb::write_json_or_fail(out_path, json);
}
