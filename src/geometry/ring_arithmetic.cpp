#include "geometry/ring_arithmetic.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace geochoice::geometry {

std::size_t ring_owner(std::span<const double> sorted_positions,
                       double x) noexcept {
  assert(!sorted_positions.empty());
  // First position strictly greater than x; the owner is its predecessor.
  const auto it = std::upper_bound(sorted_positions.begin(),
                                   sorted_positions.end(), x);
  if (it == sorted_positions.begin()) {
    // x precedes every server: it lies on the wrapping arc of the last one.
    return sorted_positions.size() - 1;
  }
  return static_cast<std::size_t>(it - sorted_positions.begin()) - 1;
}

namespace {

// Lockstep width: enough independent search chains to saturate the
// load/miss parallelism of current cores without spilling the base-index
// array out of registers/L1.
constexpr std::size_t kLockstep = 16;

// One branchless upper-bound step for a group of `g` queries. `half` is the
// probe offset for the current level; bases advance by cmov, never branch.
inline void lockstep_level(const double* pos, const double* xs,
                           std::size_t* base, std::size_t g, std::size_t half,
                           std::size_t next_half) noexcept {
  for (std::size_t i = 0; i < g; ++i) {
    const std::size_t cand = base[i] + half;
    base[i] = pos[cand] <= xs[i] ? cand : base[i];
    // Both possible probes of the next level are known now; prefetching
    // them hides the dependent-load latency of the following iteration.
    if (next_half != 0) {
      __builtin_prefetch(pos + base[i] + next_half);
    }
  }
}

}  // namespace

void ring_owner_batch(std::span<const double> sorted_positions,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept {
  assert(!sorted_positions.empty());
  assert(xs.size() == out.size());
  const double* pos = sorted_positions.data();
  const std::size_t n = sorted_positions.size();
  const std::uint32_t last = static_cast<std::uint32_t>(n - 1);

  std::size_t q = 0;
  while (q < xs.size()) {
    const std::size_t g = std::min(kLockstep, xs.size() - q);
    std::size_t base[kLockstep] = {};
    const double* x = xs.data() + q;
    // Invariant: the greatest index with pos[idx] <= x lies in
    // [base, base + len) (when it exists; x < pos[0] resolves below).
    std::size_t len = n;
    while (len > 1) {
      const std::size_t half = len >> 1;
      const std::size_t rem = len - half;
      lockstep_level(pos, x, base, g, half, rem > 1 ? rem >> 1 : 0);
      len = rem;
    }
    for (std::size_t i = 0; i < g; ++i) {
      // base==0 with pos[0] > x means x precedes every server: wrap.
      out[q + i] = pos[base[i]] <= x[i] ? static_cast<std::uint32_t>(base[i])
                                        : last;
    }
    q += g;
  }
}

void sort_unit_interval(std::vector<double>& values) {
  // Uniform input puts ~1 value in a bucket and O(log n / log log n) in
  // the fullest; past this size insertion sort's quadratic cost would show.
  constexpr std::size_t kInsertionSortMax = 32;
  const std::size_t n = values.size();
  if (n >= (std::size_t{1} << 32)) {
    throw std::length_error("sort_unit_interval: more than 2^32 - 1 values");
  }
  const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(n, 1));
  const double scale = static_cast<double>(buckets);
  const auto bucket_of = [scale](double v) {
    assert(v >= 0.0 && v < 1.0);
    return static_cast<std::size_t>(v * scale);
  };

  // first[b + 1] counts bucket b; the prefix sum turns first[b] into the
  // start of bucket b.
  std::vector<std::uint32_t> first(buckets + 1, 0);
  for (const double v : values) ++first[bucket_of(v) + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());

  std::vector<double> sorted(n);
  std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
  for (const double v : values) sorted[cursor[bucket_of(v)]++] = v;

  for (std::size_t b = 0; b < buckets; ++b) {
    double* const lo = sorted.data() + first[b];
    double* const hi = sorted.data() + first[b + 1];
    if (static_cast<std::size_t>(hi - lo) > kInsertionSortMax) {
      std::sort(lo, hi);
      continue;
    }
    for (double* it = lo + 1; it < hi; ++it) {
      const double v = *it;
      double* j = it;
      for (; j > lo && v < j[-1]; --j) *j = j[-1];
      *j = v;
    }
  }
  values.swap(sorted);
}

std::vector<double> arc_lengths(std::span<const double> sorted_positions) {
  const std::size_t n = sorted_positions.size();
  std::vector<double> arcs(n);
  if (n == 0) return arcs;
  if (n == 1) {
    arcs[0] = 1.0;
    return arcs;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    arcs[i] = sorted_positions[i + 1] - sorted_positions[i];
  }
  arcs[n - 1] = 1.0 - sorted_positions[n - 1] + sorted_positions[0];
  return arcs;
}

std::size_t count_arcs_at_least(std::span<const double> arcs,
                                double threshold) noexcept {
  std::size_t count = 0;
  for (double a : arcs) {
    if (a >= threshold) ++count;
  }
  return count;
}

double sum_of_largest(std::span<const double> arcs, std::size_t a) {
  a = std::min(a, arcs.size());
  if (a == 0) return 0.0;
  std::vector<double> copy(arcs.begin(), arcs.end());
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(a) - 1,
                   copy.end(), std::greater<>());
  double sum = 0.0;
  for (std::size_t i = 0; i < a; ++i) sum += copy[i];
  return sum;
}

}  // namespace geochoice::geometry
