// batch_throughput — scalar vs batched allocation-engine throughput.
//
// Times the scalar oracle (run_process, the loop BM_ProcessPerBallRing
// measures) against the batched engine (run_batch_process) on the same
// machine in the same run, and writes a machine-readable BENCH_batch.json
// so successive changes can track the perf trajectory. Each speedup is the
// median of three interleaved scalar/batched pairs; the JSON records the
// spread of the ring and torus pairs (`*_speedup_min` / `*_speedup_max`).
//
// Usage: batch_throughput [--out FILE] [--n N] [--check MIN_SPEEDUP]
//                         [--quick]
//   --out FILE       JSON output path (default BENCH_batch.json)
//   --n N            servers = balls (default 65536 = 2^16, the ISSUE gate)
//   --check X        exit nonzero unless ring speedup >= X
//   --quick          small deterministic sizes + fewer reps (CI smoke: same
//                    fixed seeds, ~seconds instead of minutes)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"
#include "spaces/spaces.hpp"

namespace gb = geochoice::bench;
namespace gc = geochoice::core;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_batch.json");
  std::uint64_t n = args.get_u64("n", 1ull << 16);
  const double check = args.get_double("check", 0.0);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) n = 1ull << 13;
  const int warmup = quick ? 1 : 2;
  const int reps = quick ? 5 : 11;

  gc::ProcessOptions opt;
  opt.num_balls = n;
  opt.num_choices = 2;  // matches BM_ProcessPerBallRing
  const gc::BatchOptions batch;

  // Same setup as BM_ProcessPerBallRing: random ring of n servers, m = n
  // balls, d = 2, default (random) tie-break.
  gr::DefaultEngine setup(6);
  const auto ring = gs::RingSpace::random(static_cast<std::size_t>(n), setup);
  const gs::UniformSpace uniform(static_cast<std::size_t>(n));
  // Torus lookups are ~20x costlier; 1/16 of the sites/balls keeps the
  // torus leg proportionate. Clamp so tiny --n values stay valid.
  const std::uint64_t torus_n = std::max<std::uint64_t>(1, n / 16);
  const auto torus =
      gs::TorusSpace::random(static_cast<std::size_t>(torus_n), setup);
  gc::ProcessOptions torus_opt = opt;
  torus_opt.num_balls = torus_n;

  gr::DefaultEngine gen(42);
  gc::BatchScratch<double> ring_scratch;
  gc::BatchScratch<gs::BinIndex> uniform_scratch;
  gc::BatchScratch<geochoice::geometry::Vec2> torus_scratch;

  // Each speedup is the median of `pairs` interleaved scalar/batched pairs.
  const int pairs = 3;
  const auto ring_speedup = gb::paired_speedup(
      "BM_ProcessPerBallRing/scalar", "BM_BatchProcessRing/batched", n,
      warmup, reps, pairs,
      [&] {
        const auto r = gc::run_process(ring, opt, gen);
        if (r.max_load == 0) std::abort();
      },
      [&] {
        const auto r =
            gc::run_batch_process(ring, opt, gen, batch, &ring_scratch);
        if (r.max_load == 0) std::abort();
      });
  const auto uniform_speedup = gb::paired_speedup(
      "BM_ProcessPerBallUniform/scalar", "BM_BatchProcessUniform/batched", n,
      warmup, reps, pairs,
      [&] {
        const auto r = gc::run_process(uniform, opt, gen);
        if (r.max_load == 0) std::abort();
      },
      [&] {
        const auto r =
            gc::run_batch_process(uniform, opt, gen, batch, &uniform_scratch);
        if (r.max_load == 0) std::abort();
      });
  const auto torus_speedup = gb::paired_speedup(
      "BM_ProcessPerBallTorus/scalar", "BM_BatchProcessTorus/batched",
      torus_opt.num_balls, warmup, reps, pairs,
      [&] {
        const auto r = gc::run_process(torus, torus_opt, gen);
        if (r.max_load == 0) std::abort();
      },
      [&] {
        const auto r = gc::run_batch_process(torus, torus_opt, gen, batch,
                                             &torus_scratch);
        if (r.max_load == 0) std::abort();
      });
  const std::vector<gb::Measurement> ms = {
      ring_speedup.base,  ring_speedup.fast,  uniform_speedup.base,
      uniform_speedup.fast, torus_speedup.base, torus_speedup.fast};

  std::printf("%-34s %15s %12s\n", "benchmark", "items/sec", "ns/ball");
  for (const auto& m : ms) {
    std::printf("%-34s %15.0f %12.2f\n", m.name.c_str(), m.items_per_sec,
                m.ns_per_item);
  }
  const auto print_speedup = [](const char* label,
                                const gb::PairedSpeedup& sp) {
    std::printf("%-8s speedup (batched/scalar): %.2fx (pairs %.2f-%.2f)\n",
                label, sp.median, sp.min, sp.max);
  };
  std::printf("\n");
  print_speedup("ring", ring_speedup);
  print_speedup("uniform", uniform_speedup);
  print_speedup("torus", torus_speedup);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"batch_throughput\",\n";
  char cfg[256];
  std::snprintf(cfg, sizeof(cfg),
                "  \"config\": {\"n\": %llu, \"m\": %llu, \"d\": 2, "
                "\"tie\": \"random\", \"block_size\": %zu, \"quick\": %s, "
                "\"pairs\": %d},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n), batch.block_size,
                quick ? "true" : "false", pairs);
  json += cfg;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "ball", i + 1 == ms.size());
  }
  json += "  ],\n";
  char tail[512];
  std::snprintf(
      tail, sizeof(tail),
      "  \"ring_speedup\": %.3f,\n  \"ring_speedup_min\": %.3f,\n"
      "  \"ring_speedup_max\": %.3f,\n  \"uniform_speedup\": %.3f,\n"
      "  \"torus_speedup\": %.3f,\n  \"torus_speedup_min\": %.3f,\n"
      "  \"torus_speedup_max\": %.3f\n}\n",
      ring_speedup.median, ring_speedup.min, ring_speedup.max,
      uniform_speedup.median, torus_speedup.median, torus_speedup.min,
      torus_speedup.max);
  json += tail;

  if (const int rc = gb::write_json_or_fail(out_path, json); rc != 0) {
    return rc;
  }

  if (check > 0.0 && ring_speedup.median < check) {
    std::fprintf(stderr, "FAIL: ring speedup %.2fx < required %.2fx\n",
                 ring_speedup.median, check);
    return 1;
  }
  return 0;
}
