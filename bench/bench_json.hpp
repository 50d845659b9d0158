// bench_json.hpp — shared scaffolding for the throughput benches.
//
// batch_throughput, net_throughput and the other throughput benches follow
// the
// same protocol: median-of-reps wall timing, a printable Measurement row,
// rows appended into a JSON document, and a loud nonzero-exit write of the
// --out file (the CI perf gate reads these files, so a silently dropped
// write must fail the job rather than pass it on stale or empty data).
// The write also stamps a "machine" object (CPU model, nproc, compiler,
// build type, obs compiled in or out) into the document, so every BENCH
// file names the machine its absolute rates came from. This header is that
// protocol, written once.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace geochoice::bench {

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::string name;
  double items_per_sec = 0.0;
  double ns_per_item = 0.0;
};

/// Median-of-reps wall time for one run processing `items` items.
template <typename Fn>
Measurement measure(const std::string& name, std::uint64_t items, int warmup,
                    int reps, Fn&& run) {
  for (int i = 0; i < warmup; ++i) run();
  std::vector<double> secs(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    run();
    const auto t1 = Clock::now();
    secs[static_cast<std::size_t>(i)] =
        std::chrono::duration<double>(t1 - t0).count();
  }
  std::sort(secs.begin(), secs.end());
  const double median = secs[static_cast<std::size_t>(reps) / 2];
  Measurement out;
  out.name = name;
  out.items_per_sec = static_cast<double>(items) / median;
  out.ns_per_item = median * 1e9 / static_cast<double>(items);
  return out;
}

/// A same-run speedup `base time / fast time` taken as `pairs` interleaved
/// (base, fast) measurements: drift between adjacent runs cancels, and the
/// median rejects an outlier pair. min/max record the spread.
struct PairedSpeedup {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  Measurement base;  // the rows of the median pair
  Measurement fast;
};

template <typename BaseFn, typename FastFn>
PairedSpeedup paired_speedup(const std::string& base_name,
                             const std::string& fast_name, std::uint64_t items,
                             int warmup, int reps, int pairs, BaseFn&& base,
                             FastFn&& fast) {
  struct Pair {
    double ratio;
    Measurement base, fast;
  };
  std::vector<Pair> runs;
  for (int p = 0; p < pairs; ++p) {
    const int w = p == 0 ? warmup : 0;
    const Measurement b = measure(base_name, items, w, reps, base);
    const Measurement f = measure(fast_name, items, w, reps, fast);
    runs.push_back({f.items_per_sec / b.items_per_sec, b, f});
  }
  std::sort(runs.begin(), runs.end(),
            [](const Pair& a, const Pair& b) { return a.ratio < b.ratio; });
  const Pair& mid = runs[runs.size() / 2];
  return {mid.ratio, runs.front().ratio, runs.back().ratio, mid.base,
          mid.fast};
}

/// Append one result row. `unit` names the per-item field ("ball" writes
/// "ns_per_ball", keeping the historical schema of the batch file).
inline void append_json(std::string& json, const Measurement& m,
                        const char* unit, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"items_per_sec\": %.1f, "
                "\"ns_per_%s\": %.3f}%s\n",
                m.name.c_str(), m.items_per_sec, unit, m.ns_per_item,
                last ? "" : ",");
  json += buf;
}

/// CPU model from /proc/cpuinfo, or "unknown".
[[nodiscard]] inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// `"machine": {...}`, the fingerprint of the machine and build a bench ran
/// on. Absolute rates are only comparable between equal fingerprints.
[[nodiscard]] inline std::string machine_json() {
  std::string model;
  for (const char c : cpu_model()) {
    if (c != '"' && c != '\\') model += c;
  }
#ifdef GEOCHOICE_OBS_ENABLED
  constexpr const char* kObs = "on";
#else
  constexpr const char* kObs = "off";
#endif
#ifdef GEOCHOICE_BUILD_TYPE
  constexpr const char* kBuildType = GEOCHOICE_BUILD_TYPE;
#else
  constexpr const char* kBuildType = "unknown";
#endif
  return "\"machine\": {\"cpu_model\": \"" + model + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + __VERSION__ + "\", \"build_type\": \"" +
         kBuildType + "\", \"obs\": \"" + kObs + "\"}";
}

/// Write the JSON document `json` (an object opening with "{\n") to `path`
/// with the machine fingerprint as its first field; on any failure print
/// FAIL and return nonzero so the caller can exit with it.
[[nodiscard]] inline int write_json_or_fail(const std::string& path,
                                            const std::string& json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  if (json.rfind("{\n", 0) != 0) {
    std::fprintf(stderr, "FAIL: %s: document does not open with {\n",
                 path.c_str());
    return 1;
  }
  out << "{\n  " << machine_json() << ",\n" << json.substr(2);
  out.close();
  if (out.fail()) {
    std::fprintf(stderr, "FAIL: error writing %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace geochoice::bench
