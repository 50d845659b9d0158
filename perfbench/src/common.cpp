#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>

#include "rng/philox.hpp"

namespace perfbench {

namespace {

[[nodiscard]] double to_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {to_seconds(ru.ru_utime), to_seconds(ru.ru_stime)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double exact_quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t call_seed(std::uint64_t bench_seed, std::uint64_t call) {
  return geochoice::rng::philox_hash(bench_seed, call);
}

void Result::note(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  note(key, os.str());
}

void Result::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void add_rep_metrics(Result& res, const Timed& timed) {
  const auto& reps = timed.reps;
  const std::size_t n = reps.size();
  res.set("setup_s", median(timed.setup_s), "s", timed.setup_s.size());
  res.set("ops_per_sec",
          median_of(reps, [](const Rep& r) { return r.ops / r.wall_s; }),
          "1/s", n);
  res.set("cpu_ns_per_op", median_of(reps, [](const Rep& r) {
            return (r.user_s + r.sys_s) / r.ops * 1e9;
          }),
          "ns", n);
  res.set("parallel.cpu_per_wall", median_of(reps, [](const Rep& r) {
            return (r.user_s + r.sys_s) / r.wall_s;
          }),
          "ratio", n);
  res.set("proc.user_us_per_op",
          median_of(reps, [](const Rep& r) { return r.user_s / r.ops * 1e6; }),
          "us", n);
  res.set("proc.sys_us_per_op",
          median_of(reps, [](const Rep& r) { return r.sys_s / r.ops * 1e6; }),
          "us", n);
  double lo = 0.0, hi = 0.0;
  for (const Rep& r : reps) {
    res.attempted += static_cast<std::uint64_t>(r.ops);
    const double rate = r.ops / r.wall_s;
    lo = lo == 0.0 ? rate : std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  res.note("ops_per_sec.min", lo);
  res.note("ops_per_sec.max", hi);
}

}  // namespace perfbench
