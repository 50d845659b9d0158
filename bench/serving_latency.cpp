// serving_latency — what a placement policy costs at request time.
//
// The paper's tables measure placement quality as max load; this bench
// converts it into the quantity a serving fleet budgets for: request
// tail latency. Four policies place the same keyspace, then serve the
// identical open-loop read stream (Zipf keys, bursty Poisson arrivals,
// backlog-coupled service times — sim/serving.hpp):
//
//   one-choice     d=1                   the random-placement baseline
//   two-choice     d=2                   the paper's headline policy
//   d-choice       d=4                   diminishing returns beyond 2
//   stale-window   d=2, window=32, lat   two-choice acting on stale loads
//
// Each policy reports p50/p99/p999 and requests/sec. The gate metrics:
//
//   * serving_p99_vs_one_choice — one-choice p99 over two-choice p99
//     (> 1 means two choices flatten the tail). Same run, same machine,
//     same libm: the ratio is machine-independent and floored in
//     bench/baseline.json.
//   * store_ops_per_sec — warmed HashStore mixed get/put rate, the raw
//     table speed under everything above; floored as an absolute rate.
//
// Usage: serving_latency [--out FILE] [--n N] [--keys K] [--requests R]
//                        [--rate RPS_US] [--alpha A] [--quick]
//   --out FILE    JSON output path (default BENCH_serving.json)
//   --n N         serving nodes (default 256)
//   --keys K      placed keys (default 8192)
//   --requests R  open-loop reads per policy (default 2^17)
//   --rate R      mean arrivals per us (default sized to saturate the
//                 one-choice max-load node during bursts, see below)
//   --alpha A     Zipf skew of the key popularity (default 0.5)
//   --quick       small deterministic sizes for the CI smoke
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "net/latency.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"
#include "sim/serving.hpp"
#include "store/store.hpp"

namespace gb = geochoice::bench;
namespace gn = geochoice::net;
namespace gr = geochoice::rng;
namespace gs = geochoice::sim;
namespace gst = geochoice::store;

namespace {

struct Policy {
  const char* name;
  int choices;
  std::uint32_t window;
  gn::LatencyModel latency;
};

struct PolicyResult {
  const char* name;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double requests_per_sec = 0.0;
  std::uint32_t max_load = 0;
  std::uint32_t peak_queue = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_serving.json");
  std::uint64_t n = args.get_u64("n", 256);
  std::uint64_t keys = args.get_u64("keys", 8192);
  std::uint64_t requests = args.get_u64("requests", 1ull << 17);
  const double alpha = args.get_double("alpha", 0.5);
  const double rate_flag = args.get_double("rate", 0.0);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) {
    n = 128;
    keys = 2048;
    requests = 1ull << 14;
  }
  // Default arrival rate: during bursts (rate x 4) the mean per-node
  // utilization is ~0.36, which saturates a node carrying 3-4x the mean
  // key count (one-choice ring arcs do) while a 1.5x node (two-choice)
  // keeps draining — that gap is exactly what the tail quantiles measure.
  const double rate =
      rate_flag > 0.0 ? rate_flag : 0.09 * static_cast<double>(n);

  gs::ServingConfig base;
  base.nodes = n;
  base.keys = keys;
  base.requests = requests;
  base.zipf_alpha = alpha;
  base.arrival_rate = rate;
  base.burst_factor = 4.0;
  base.service_base_us = 1.0;
  base.queue_coupling = 0.25;

  const Policy policies[] = {
      {"one-choice", 1, 1, gn::LatencyModel::zero()},
      {"two-choice", 2, 1, gn::LatencyModel::zero()},
      {"d-choice", 4, 1, gn::LatencyModel::zero()},
      {"stale-window", 2, 32, gn::LatencyModel::constant(1.0)},
  };

  std::vector<PolicyResult> results;
  std::vector<gb::Measurement> ms;
  const int warmup = quick ? 0 : 1;
  const int reps = quick ? 3 : 5;

  for (const Policy& p : policies) {
    gs::ServingConfig cfg = base;
    cfg.choices = p.choices;
    cfg.window = p.window;
    cfg.latency = p.latency;

    gs::ServingReport report;
    const auto row = gb::measure(std::string("Serving/") + p.name,
                                 requests, warmup, reps, [&] {
                                   report = gs::run_serving(cfg);
                                   if (report.misses != 0) std::abort();
                                 });
    ms.push_back(row);

    PolicyResult r;
    r.name = p.name;
    r.p50 = report.latency_us_q.value(0);
    r.p99 = report.latency_us_q.value(1);
    r.p999 = report.latency_us_q.value(2);
    r.requests_per_sec = row.items_per_sec;
    r.max_load = report.max_load;
    r.peak_queue = report.peak_queue;
    results.push_back(r);
  }

  // --- raw table speed: warmed mixed get/put loop over one HashStore,
  // the per-request store cost hiding inside every policy row above.
  constexpr std::uint64_t kStoreKeys = 1ull << 14;
  constexpr std::uint64_t kStoreOps = 1ull << 20;
  gst::HashStore store;
  for (std::uint64_t k = 0; k < kStoreKeys; ++k) store.put_u64(k, k);
  while (store.migrating()) (void)store.get_u64(0);
  ms.push_back(gb::measure("HashStore/mixed", kStoreOps, warmup, reps, [&] {
    gr::DefaultEngine gen(0x5374ULL);
    std::uint64_t sink = 0;
    for (std::uint64_t op = 0; op < kStoreOps; ++op) {
      const std::uint64_t key = gr::uniform_below(gen, kStoreKeys);
      if ((op & 7) == 0) {
        store.put_u64(key, op);
      } else {
        sink ^= store.get_u64(key).value_or(0);
      }
    }
    if (sink == 0xdeadULL) std::abort();  // keep the loop observable
  }));
  const double store_ops_per_sec = ms.back().items_per_sec;

  const double serving_p99_vs_one_choice =
      results[0].p99 / results[1].p99;  // one-choice over two-choice

  std::printf("%-16s %10s %10s %10s %12s %9s %10s\n", "policy", "p50_us",
              "p99_us", "p999_us", "reqs/sec", "max_load", "peak_queue");
  for (const auto& r : results) {
    std::printf("%-16s %10.2f %10.2f %10.2f %12.0f %9u %10u\n", r.name, r.p50,
                r.p99, r.p999, r.requests_per_sec, r.max_load, r.peak_queue);
  }
  std::printf("\nhw threads: %u\n", std::thread::hardware_concurrency());
  std::printf("one-choice p99 / two-choice p99 : %.3fx\n",
              serving_p99_vs_one_choice);
  std::printf("store mixed ops/sec             : %.0f\n", store_ops_per_sec);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"serving_latency\",\n";
  char cfg_buf[256];
  std::snprintf(cfg_buf, sizeof(cfg_buf),
                "  \"config\": {\"n\": %llu, \"keys\": %llu, "
                "\"requests\": %llu, \"zipf\": %.2f, \"rate\": %.3f, "
                "\"quick\": %s},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(keys),
                static_cast<unsigned long long>(requests), base.zipf_alpha,
                base.arrival_rate, quick ? "true" : "false");
  json += cfg_buf;
  char hwbuf[64];
  std::snprintf(hwbuf, sizeof(hwbuf), "  \"hw_threads\": %zu,\n",
                static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json += hwbuf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "request", i + 1 == ms.size());
  }
  json += "  ],\n";
  json += "  \"policies\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"name\": \"%s\", \"p50_us\": %.3f, \"p99_us\": %.3f, "
                  "\"p999_us\": %.3f, \"max_load\": %u, \"peak_queue\": %u}%s\n",
                  r.name, r.p50, r.p99, r.p999, r.max_load, r.peak_queue,
                  i + 1 == results.size() ? "" : ",");
    json += row;
  }
  json += "  ],\n";
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  \"serving_p99_vs_one_choice\": %.4f,\n"
                "  \"store_ops_per_sec\": %.1f\n}\n",
                serving_p99_vs_one_choice, store_ops_per_sec);
  json += tail;

  return gb::write_json_or_fail(out_path, json);
}
