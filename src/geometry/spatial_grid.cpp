#include "geometry/spatial_grid.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace geochoice::geometry {

SpatialGrid::SpatialGrid(std::span<const Vec2> sites,
                         std::uint32_t buckets_per_axis)
    : sites_(sites.begin(), sites.end()) {
  const std::size_t n = sites_.size();
  std::uint32_t k = buckets_per_axis;
  if (k == 0) {
    k = static_cast<std::uint32_t>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
  }
  // An odd bucket count makes the Chebyshev rings 0..(k-1)/2 an exact
  // partition of all buckets, so ring iteration never revisits a site.
  if (k % 2 == 0) ++k;
  k_ = k;
  cell_ = 1.0 / static_cast<double>(k_);

  const std::size_t buckets = static_cast<std::size_t>(k_) * k_;
  std::vector<std::uint32_t> count(buckets + 1, 0);
  std::vector<std::uint32_t> bucket_of_site(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bx = bucket_of(sites_[i].x);
    const std::uint32_t by = bucket_of(sites_[i].y);
    const std::uint32_t b = bx + by * k_;
    bucket_of_site[i] = b;
    ++count[b + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) count[b + 1] += count[b];
  start_ = count;
  order_.resize(n);
  std::vector<std::uint32_t> cursor(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    order_[cursor[bucket_of_site[i]]++] = static_cast<std::uint32_t>(i);
  }

  bucket_x_.resize(n);
  bucket_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    bucket_x_[i] = sites_[order_[i]].x;
    bucket_y_[i] = sites_[order_[i]].y;
  }
  wrap_.resize(3 * static_cast<std::size_t>(k_));
  for (std::size_t i = 0; i < wrap_.size(); ++i) {
    wrap_[i] = static_cast<std::uint32_t>(i % k_);
  }
}

std::uint32_t SpatialGrid::bucket_of(double coord) const noexcept {
  return unit_bucket_of(wrap01(coord));
}

std::uint32_t SpatialGrid::unit_bucket_of(double w) const noexcept {
  auto b = static_cast<std::uint32_t>(w * static_cast<double>(k_));
  return b >= k_ ? k_ - 1 : b;  // guard the w -> 1.0 rounding edge
}

std::uint32_t SpatialGrid::ring_cover(double radius) const noexcept {
  const std::uint32_t max_full = (k_ - 1) / 2;
  if (radius >= 0.5 * kTorusDiameter * 2.0) return max_full;
  // Need rings whose inner edge is within `radius`: ring r covers Chebyshev
  // distances >= (r-1)*cell from anywhere inside the center bucket.
  const double rings = std::ceil(radius / cell_) + 1.0;
  if (rings >= static_cast<double>(max_full)) return max_full;
  return static_cast<std::uint32_t>(rings);
}

double SpatialGrid::ring_min_dist(Vec2 /*q*/,
                                  std::uint32_t ring) const noexcept {
  // Conservative lower bound on the torus distance from any point of the
  // center bucket to any point of a ring-`ring` bucket: (ring-1) bucket
  // widths (Euclidean >= Chebyshev).
  if (ring <= 1) return 0.0;
  return static_cast<double>(ring - 1) * cell_;
}

std::uint32_t SpatialGrid::nearest(Vec2 q) const noexcept {
  assert(!sites_.empty());
  std::uint32_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::uint32_t max_ring = (k_ - 1) / 2;
  for (std::uint32_t ring = 0; ring <= max_ring; ++ring) {
    const double lower = ring_min_dist(q, ring);
    if (lower * lower > best_d2) break;
    visit_ring(q, ring, [&](std::uint32_t idx) {
      const double d2 = torus_dist2(sites_[idx], q);
      if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
        best_d2 = d2;
        best = idx;
      }
    });
  }
  return best;
}

double SpatialGrid::nearest_dist2(Vec2 q) const noexcept {
  return torus_dist2(sites_[nearest(q)], q);
}

namespace {

// A candidate as one unsigned key: bits(dist2) << 32 | site index. dist2 is
// never negative (nor -0), so its bit pattern orders like its value, and
// the low word breaks ties toward the lower index, as nearest() does.
using CandidateKey = unsigned __int128;

[[nodiscard]] inline CandidateKey candidate_key(double d2,
                                                std::uint32_t idx) noexcept {
  return static_cast<CandidateKey>(std::bit_cast<std::uint64_t>(d2)) << 32 |
         idx;
}

[[nodiscard]] inline double key_dist2(CandidateKey key) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 32));
}

/// Lexicographic minimum of `best` and the candidates in CSR range
/// [lo, hi). The deltas fold as min(dx, 1 - dx), bit-equal to the
/// |torus_delta| that torus_dist2 squares for coordinates in [0,1).
[[nodiscard]] inline CandidateKey scan_run(const double* xs, const double* ys,
                                           const std::uint32_t* order,
                                           std::uint32_t lo, std::uint32_t hi,
                                           double qx, double qy,
                                           CandidateKey best) noexcept {
  for (std::uint32_t i = lo; i < hi; ++i) {
    double dx = std::fabs(xs[i] - qx);
    dx = std::min(dx, 1.0 - dx);
    double dy = std::fabs(ys[i] - qy);
    dy = std::min(dy, 1.0 - dy);
    const CandidateKey key = candidate_key(dx * dx + dy * dy, order[i]);
    best = key < best ? key : best;
  }
  return best;
}

/// CSR ranges of one block row around column `bx` (k >= 3): `main` covers
/// columns max(bx-1, 0)..min(bx+1, k-1), `seam` the column that wraps
/// across the x seam (empty when bx is interior). `first` is the row's
/// start_ offsets.
struct RowRuns {
  std::uint32_t main_lo, main_hi, seam_lo, seam_hi;
};

[[nodiscard]] inline RowRuns row_runs(const std::uint32_t* first,
                                      std::uint32_t k,
                                      std::uint32_t bx) noexcept {
  const bool left = bx == 0;
  const bool right = bx + 1 == k;
  const std::uint32_t lo = bx - !left;
  const std::uint32_t hi = bx + 1 + !right;
  const std::uint32_t seam = left ? k - 1 : 0;
  return {first[lo], first[hi], first[seam], first[seam + (left | right)]};
}

}  // namespace

std::uint32_t SpatialGrid::nearest_soa(Vec2 q) const noexcept {
  assert(!sites_.empty());
  const double qx = wrap01(q.x);
  const double qy = wrap01(q.y);
  const double* const xs = bucket_x_.data();
  const double* const ys = bucket_y_.data();
  const std::uint32_t* const order = order_.data();
  CandidateKey best =
      candidate_key(std::numeric_limits<double>::infinity(), 0);
  if (k_ < 3) {
    // One bucket (k is odd): it holds every site.
    const auto n = static_cast<std::uint32_t>(order_.size());
    best = scan_run(xs, ys, order, 0, n, qx, qy, best);
    return static_cast<std::uint32_t>(best);
  }

  // Rings 0 and 1: the 3x3 block as three row runs.
  const std::uint32_t bx = unit_bucket_of(qx);
  const std::uint32_t by = unit_bucket_of(qy);
  // wrap valid for axis offsets in [-k, 2k); rings never exceed (k-1)/2.
  const std::uint32_t* const wrap = wrap_.data() + k_;
  const std::int64_t iy = by;
  for (const std::uint32_t row : {wrap[iy - 1], by, wrap[iy + 1]}) {
    const RowRuns r =
        row_runs(start_.data() + std::size_t{row} * k_, k_, bx);
    best = scan_run(xs, ys, order, r.main_lo, r.main_hi, qx, qy, best);
    best = scan_run(xs, ys, order, r.seam_lo, r.seam_hi, qx, qy, best);
  }

  // Every site outside the block is at least `reach` from q (see the
  // header for why the slack makes this exact).
  const double edge_x =
      std::min(qx - (bx - 1.0) * cell_, (bx + 2.0) * cell_ - qx);
  const double edge_y =
      std::min(qy - (by - 1.0) * cell_, (by + 2.0) * cell_ - qy);
  const double reach = std::min(edge_x, edge_y) - 1e-9 * cell_;
  if (reach > 0.0 && reach * reach > key_dist2(best)) {
    return static_cast<std::uint32_t>(best);
  }

  // Rings >= 2: nearest()'s walk and bound, bucket by bucket.
  const std::int64_t ix = bx;
  auto scan_bucket = [&](std::uint32_t cx, std::uint32_t cy) {
    const std::size_t b = cx + static_cast<std::size_t>(cy) * k_;
    best = scan_run(xs, ys, order, start_[b], start_[b + 1], qx, qy, best);
  };
  const std::uint32_t max_ring = (k_ - 1) / 2;
  for (std::uint32_t ring = 2; ring <= max_ring; ++ring) {
    const double lower = ring_min_dist(q, ring);
    if (lower * lower > key_dist2(best)) break;
    const std::int64_t r = ring;
    const std::uint32_t cy_lo = wrap[iy - r];
    const std::uint32_t cy_hi = wrap[iy + r];
    for (std::int64_t dx = -r; dx <= r; ++dx) {
      const std::uint32_t cx = wrap[ix + dx];
      scan_bucket(cx, cy_lo);
      scan_bucket(cx, cy_hi);
    }
    const std::uint32_t cx_lo = wrap[ix - r];
    const std::uint32_t cx_hi = wrap[ix + r];
    for (std::int64_t dy = -r + 1; dy <= r - 1; ++dy) {
      const std::uint32_t cy = wrap[iy + dy];
      scan_bucket(cx_lo, cy);
      scan_bucket(cx_hi, cy);
    }
  }
  return static_cast<std::uint32_t>(best);
}

void SpatialGrid::nearest_batch(std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  assert(qs.size() == out.size());
  const std::size_t m = qs.size();
  if (k_ < 3) {
    for (std::size_t i = 0; i < m; ++i) out[i] = nearest_soa(qs[i]);
    return;
  }
  // Two-stage prefetch: the block rows' CSR offsets far ahead, then (once
  // those have landed) the candidate lines they point at.
  constexpr std::size_t kRowsAhead = 16;
  constexpr std::size_t kSitesAhead = 8;
  const std::uint32_t* const wrap = wrap_.data() + k_;
  auto block = [&](Vec2 p, auto&& visit_row) {
    const std::uint32_t bx = bucket_of(p.x);
    const std::uint32_t by = bucket_of(p.y);
    const std::size_t lo = bx - (bx > 0);
    const std::int64_t iy = by;
    for (const std::uint32_t row : {wrap[iy - 1], by, wrap[iy + 1]}) {
      visit_row(row * static_cast<std::size_t>(k_) + lo);
    }
  };
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kRowsAhead < m) {
      block(qs[i + kRowsAhead],
            [&](std::size_t b) { __builtin_prefetch(start_.data() + b); });
    }
    if (i + kSitesAhead < m) {
      block(qs[i + kSitesAhead], [&](std::size_t b) {
        const std::uint32_t s = start_[b];
        __builtin_prefetch(bucket_x_.data() + s);
        __builtin_prefetch(bucket_y_.data() + s);
        __builtin_prefetch(order_.data() + s);
      });
    }
    out[i] = nearest_soa(qs[i]);
  }
}

std::vector<SpatialGrid::Neighbor> SpatialGrid::neighbors_within(
    Vec2 q, double radius, std::uint32_t skip) const {
  std::vector<Neighbor> out;
  for_each_within(
      q, radius,
      [&](std::uint32_t idx, double d2) { out.push_back({idx, d2}); }, skip);
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
  });
  return out;
}

std::uint32_t brute_force_nearest(std::span<const Vec2> sites,
                                  Vec2 q) noexcept {
  assert(!sites.empty());
  std::uint32_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < sites.size(); ++i) {
    const double d2 = torus_dist2(sites[i], q);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

}  // namespace geochoice::geometry
