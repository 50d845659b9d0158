// registry.hpp — named counters, gauges, and fixed-bucket histograms
// with per-thread lock-free sinks, merged at report time.
//
// The contract that makes this layer safe to wire through the hot paths
// of a bit-reproducible simulator:
//
//   * Zero-cost-when-off, twice over. Compile-time: unless the build
//     defines GEOCHOICE_OBS_ENABLED (CMake option GEOCHOICE_OBS, default
//     ON), every class here is an empty stub and the instrumented call
//     sites compile to nothing. Run-time: even when compiled in, every
//     handle checks the process-wide `enabled()` toggle (one relaxed
//     atomic load) before touching a sink, so an un-observed run pays a
//     predictable branch, never a write.
//   * No RNG, no ordering effects. Recording a metric reads a clock at
//     most (spans) and increments thread-local cells; it never draws
//     randomness, allocates on the hot path, or synchronizes with other
//     threads. The golden FNV trace hashes and engine bit-identity
//     tests run unchanged with observability fully enabled — that claim
//     is pinned by tests and gated as `obs_overhead` in
//     bench/baseline.json.
//
// Write path: each thread lazily owns one Sink — fixed arrays of relaxed
// std::atomic cells allocated once (no resize, so no reader/writer
// races). Only the owning thread writes its cells; snapshot() reads all
// sinks with relaxed loads and sums. Registration (name -> cell) takes a
// mutex but happens once per metric per process, typically from a
// function-local static handle.
//
// Metric kinds:
//   Counter    monotonic u64 adds                ("net.events")
//   Gauge      last-written double, process-wide (a level, not a total)
//   Histogram  fixed upper-bound buckets + sum   ("store.probe_len")
//   Timer      a calls/total-ns counter pair fed by obs::Span
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace geochoice::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One merged metric in a snapshot. Counters: `count` is the total.
/// Gauges: `value` is the last write. Histograms: `count` observations,
/// `value` their sum, `buckets[i]` counts observations <= bounds[i]
/// (the last bucket is the overflow, buckets.size() == bounds.size()+1).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

/// True when the obs layer is compiled in (GEOCHOICE_OBS=ON).
[[nodiscard]] constexpr bool compiled_in() noexcept {
#if defined(GEOCHOICE_OBS_ENABLED)
  return true;
#else
  return false;
#endif
}

#if defined(GEOCHOICE_OBS_ENABLED)

/// Process-wide runtime toggle. Off by default; sim::run flips it on for
/// runs that request metrics (--obs / --trace-out) and restores it after.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

class Registry {
 public:
  /// Fixed sink geometry: cells are assigned at registration and never
  /// move, so sinks can be read lock-free while owners write.
  static constexpr std::size_t kMaxU64Cells = 1024;
  static constexpr std::size_t kMaxF64Cells = 128;
  static constexpr std::size_t kMaxGauges = 128;

  /// Histogram descriptor: immutable after registration, so observe()
  /// can read it without the registry mutex.
  struct HistogramDesc {
    std::size_t first_cell = 0;  // bounds.size()+1 consecutive u64 cells
    std::size_t sum_cell = 0;    // one f64 cell
    std::vector<double> bounds;  // ascending upper bounds
  };

  [[nodiscard]] static Registry& global();

  /// Register (or find) a metric; same name always returns the same
  /// cell/descriptor. Throws std::invalid_argument on a kind mismatch or
  /// when the fixed cell arrays are exhausted.
  [[nodiscard]] std::size_t counter_cell(std::string_view name);
  [[nodiscard]] std::size_t gauge_slot(std::string_view name);
  [[nodiscard]] const HistogramDesc* histogram_desc(
      std::string_view name, std::vector<double> bounds);

  /// Hot-path writes. All relaxed, all thread-local (gauges excepted:
  /// last writer wins on a shared slot). Out-of-range ids (a
  /// default-constructed handle) are ignored.
  void add(std::size_t cell, std::uint64_t delta) noexcept;
  void set_gauge(std::size_t slot, double value) noexcept;
  void observe(const HistogramDesc* desc, double value) noexcept;

  /// Merge every thread's sink and return all registered metrics in
  /// registration order.
  [[nodiscard]] std::vector<MetricValue> snapshot();

  /// Zero every cell in every sink (between runs). Registrations are
  /// kept — handles stay valid for the life of the process.
  void reset() noexcept;

 private:
  struct Sink {
    std::atomic<std::uint64_t> u64[kMaxU64Cells];
    std::atomic<double> f64[kMaxF64Cells];
  };
  struct Desc {
    std::string name;
    MetricKind kind;
    std::size_t cell = 0;   // counter: u64 cell. gauge: gauge slot.
    HistogramDesc* hist = nullptr;
  };

  Registry() = default;
  [[nodiscard]] Sink& local_sink();
  struct Impl;
  Impl& impl();
};

/// Cheap copyable handle to a named counter. Construct once (typically a
/// function-local static) and add() from any thread.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::string_view name)
      : cell_(Registry::global().counter_cell(name)) {}
  void add(std::uint64_t delta = 1) const noexcept {
    if (enabled()) Registry::global().add(cell_, delta);
  }

 private:
  std::size_t cell_ = static_cast<std::size_t>(-1);
};

/// Last-writer-wins double; process-wide (not per-thread).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::string_view name)
      : slot_(Registry::global().gauge_slot(name)) {}
  void set(double value) const noexcept {
    if (enabled()) Registry::global().set_gauge(slot_, value);
  }

 private:
  std::size_t slot_ = static_cast<std::size_t>(-1);
};

/// Fixed-bucket histogram: values land in the first bucket whose upper
/// bound is >= value, or the overflow bucket.
class Histogram {
 public:
  Histogram() = default;
  Histogram(std::string_view name, std::vector<double> bounds)
      : desc_(Registry::global().histogram_desc(name, std::move(bounds))) {}
  void observe(double value) const noexcept {
    if (enabled()) Registry::global().observe(desc_, value);
  }

 private:
  const Registry::HistogramDesc* desc_ = nullptr;
};

/// A calls/total-ns counter pair; obs::Span feeds it.
class Timer {
 public:
  Timer() = default;
  explicit Timer(std::string_view name)
      : calls_(std::string(name) + ".calls"),
        total_ns_(std::string(name) + ".ns") {}
  void record_ns(std::uint64_t ns) const noexcept {
    calls_.add(1);
    total_ns_.add(ns);
  }

 private:
  Counter calls_;
  Counter total_ns_;
};

#else  // !GEOCHOICE_OBS_ENABLED: the whole layer is inline no-ops.

[[nodiscard]] constexpr bool enabled() noexcept { return false; }
constexpr void set_enabled(bool) noexcept {}

class Registry {
 public:
  [[nodiscard]] static Registry& global() noexcept {
    static Registry r;
    return r;
  }
  [[nodiscard]] std::vector<MetricValue> snapshot() { return {}; }
  constexpr void reset() noexcept {}
};

class Counter {
 public:
  Counter() = default;
  explicit constexpr Counter(std::string_view) noexcept {}
  constexpr void add(std::uint64_t = 1) const noexcept {}
};

class Gauge {
 public:
  Gauge() = default;
  explicit constexpr Gauge(std::string_view) noexcept {}
  constexpr void set(double) const noexcept {}
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(std::string_view, std::vector<double>) noexcept {}
  constexpr void observe(double) const noexcept {}
};

class Timer {
 public:
  Timer() = default;
  explicit constexpr Timer(std::string_view) noexcept {}
  constexpr void record_ns(std::uint64_t) const noexcept {}
};

#endif  // GEOCHOICE_OBS_ENABLED

}  // namespace geochoice::obs
