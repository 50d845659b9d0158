// common.hpp — timing, resource and result plumbing shared by the
// benchmark's workloads.
//
// Timing vocabulary. Every throughput is work / wall seconds read by the
// benchmark around a call into the library; CPU seconds (user + sys, from
// getrusage) are recorded beside them and ratios such as cpu_per_wall are
// derived from the two. Nothing here trusts a rate the library computes
// itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// User and system CPU seconds of this process so far.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};
[[nodiscard]] CpuTimes process_cpu();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] std::size_t hardware_threads();

/// Median of `v` (the mean of the middle pair for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank empirical quantile of `v` (sorted in place); 0 if empty.
[[nodiscard]] double exact_quantile(std::vector<double>& v, double q);

/// The library seed of the `call`-th front-door call of a run: a pure
/// function of the benchmark seed, so one seed fixes every input.
[[nodiscard]] std::uint64_t call_seed(std::uint64_t bench_seed,
                                      std::uint64_t call);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One timed call: its wall and CPU cost and the operations it completed.
struct Rep {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double ops = 0.0;
};

/// Set-up repetitions timed before each call; setup_s is their median.
/// Spreading them over the run, between the calls, lets them see the same
/// machine as the calls do.
inline constexpr std::size_t kSetupPerCall = 3;

/// What repeat_for measured.
struct Timed {
  std::vector<Rep> reps;
  std::vector<double> setup_s;
};

/// Run `body(call)` for call = 0, 1, ... and time each, with `setup()`
/// timed kSetupPerCall times before every call. After `min_reps` calls, a
/// call starts only if one more as long as the last still ends within
/// `seconds`. `body` returns the number of operations the call completed.
template <typename Setup, typename Body>
Timed repeat_for(double seconds, std::size_t min_reps, Setup&& setup,
                 Body&& body) {
  Timed out;
  const auto start = Clock::now();
  for (std::uint64_t call = 0;
       out.reps.size() < std::max<std::size_t>(min_reps, 1) ||
       seconds_since(start) + out.reps.back().wall_s <= seconds;
       ++call) {
    for (std::size_t i = 0; i < kSetupPerCall; ++i) {
      const auto t0 = Clock::now();
      setup();
      out.setup_s.push_back(seconds_since(t0));
    }
    const CpuTimes c0 = process_cpu();
    const auto t0 = Clock::now();
    const double ops = body(call);
    Rep r;
    r.wall_s = seconds_since(t0);
    const CpuTimes c1 = process_cpu();
    r.user_s = c1.user - c0.user;
    r.sys_s = c1.sys - c0.sys;
    r.ops = ops;
    out.reps.push_back(r);
  }
  return out;
}

/// Median over reps of f(rep).
template <typename F>
[[nodiscard]] double median_of(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(f(r));
  return median(std::move(v));
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one benchmark run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Path coverage and fingerprint: recorded, never asserted.
  std::vector<std::pair<std::string, std::string>> record;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void note(const std::string& key, const std::string& value) {
    record.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
  /// A failed output check: `ops` operations are counted as failed.
  void fail(const std::string& what, std::uint64_t ops);
};

/// The end-to-end metrics every workload reports, plus the per-layer
/// metrics derived from the untraced reps alone (CPU per wall and per op).
void add_rep_metrics(Result& res, const Timed& timed);

}  // namespace perfbench
