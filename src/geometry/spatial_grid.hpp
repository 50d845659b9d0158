// spatial_grid.hpp — uniform bucket grid over the unit torus.
//
// The torus experiments need two query kinds:
//   * nearest(q)      — index of the site closest to q in torus metric
//                       (the Voronoi owner lookup; the hot path of the
//                       2-D d-choice process), and
//   * for_each_within — enumerate sites within a given torus radius (used by
//                       the Voronoi cell construction and the Lemma 8 sector
//                       predicate).
//
// With n uniformly random sites and ~1 site per bucket, nearest() is O(1)
// expected: scan the query's bucket ring by ring, pruning once the ring's
// minimum possible distance exceeds the best distance found.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.hpp"

namespace geochoice::geometry {

class SpatialGrid {
 public:
  /// Build a grid over `sites` (coordinates in [0,1)). `buckets_per_axis`
  /// defaults to ~sqrt(n) so the expected occupancy is one site per bucket.
  explicit SpatialGrid(std::span<const Vec2> sites,
                       std::uint32_t buckets_per_axis = 0);

  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::span<const Vec2> sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] std::uint32_t buckets_per_axis() const noexcept {
    return k_;
  }

  /// Index of the nearest site to `q` (torus metric). Requires >= 1 site.
  [[nodiscard]] std::uint32_t nearest(Vec2 q) const noexcept;

  /// Distance-squared to the nearest site.
  [[nodiscard]] double nearest_dist2(Vec2 q) const noexcept;

  /// Batched nearest-site resolution: `out[i] = nearest(qs[i])` for every
  /// Batched nearest-site resolution: `out[i] = nearest(qs[i])` for every
  /// query, bit for bit. Queries resolve in arrival order through the
  /// nearest_soa kernel with a two-stage software prefetch: 16 queries
  /// ahead it pulls in the CSR offsets of the query's three block rows, 8
  /// queries ahead the bucket_x_/bucket_y_/order_ lines those offsets point
  /// at, so each query finds its candidates in cache. Requires qs.size() ==
  /// out.size(). Queries must lie in [0,1)^2 (the process engines'
  /// domain); others are wrapped first.
  void nearest_batch(std::span<const Vec2> qs,
                     std::span<std::uint32_t> out) const;

  /// Invoke `fn(site_index, dist2)` for every site within torus distance
  /// `radius` of `q` (inclusive). Visits each site exactly once; order is
  /// unspecified. `skip` (if not UINT32_MAX) is excluded — callers pass the
  /// center site itself.
  template <typename Fn>
  void for_each_within(Vec2 q, double radius, Fn&& fn,
                       std::uint32_t skip = kNoSkip) const {
    const double r2 = radius * radius;
    // Enough rings to cover `radius` plus one safety ring for bucket
    // granularity; never more than covers the whole torus.
    const std::uint32_t max_ring = ring_cover(radius);
    // A ring that wraps past half the grid would revisit buckets, and
    // visit_ring skips such rings entirely — which would silently drop
    // sites. On small grids (2·max_ring >= k) just scan everything; the
    // whole grid is at most a few buckets there anyway.
    if (2 * static_cast<std::uint64_t>(max_ring) >= k_) {
      for (std::uint32_t idx = 0; idx < sites_.size(); ++idx) {
        if (idx == skip) continue;
        const double d2 = torus_dist2(sites_[idx], q);
        if (d2 <= r2) fn(idx, d2);
      }
      return;
    }
    for (std::uint32_t ring = 0; ring <= max_ring; ++ring) {
      visit_ring(q, ring, [&](std::uint32_t idx) {
        if (idx == skip) return;
        const double d2 = torus_dist2(sites_[idx], q);
        if (d2 <= r2) fn(idx, d2);
      });
    }
  }

  /// Collect (index, dist2) of all sites within `radius`, sorted by
  /// distance. Convenience wrapper used by the Voronoi builder.
  struct Neighbor {
    std::uint32_t index;
    double dist2;
  };
  [[nodiscard]] std::vector<Neighbor> neighbors_within(
      Vec2 q, double radius, std::uint32_t skip = kNoSkip) const;

  static constexpr std::uint32_t kNoSkip = 0xffffffffu;

 private:
  [[nodiscard]] std::uint32_t bucket_of(double coord) const noexcept;
  /// bucket_of for a coordinate already wrapped into [0,1).
  [[nodiscard]] std::uint32_t unit_bucket_of(double w) const noexcept;
  [[nodiscard]] std::uint32_t ring_cover(double radius) const noexcept;

  /// The batch path's per-query kernel: the same result as nearest() for
  /// queries in [0,1)^2, with less branching.
  ///   * The 3x3 bucket block around q (rings 0 and 1) is scanned as three
  ///     row runs. Buckets are stored row-major, so columns bx-1..bx+1 of a
  ///     row are one contiguous CSR range, split in two only at the x seam.
  ///   * Candidates come from the SoA arrays (bucket_x_/bucket_y_). Each
  ///     torus delta folds as min(dx, 1 - dx), bit-equal to torus_dist2:
  ///     for dx >= 1/2, 1 - dx is exact (Sterbenz), and for dx < 1/2 it
  ///     rounds to at least 1/2.
  ///   * The best candidate is one branch-free lexicographic minimum over
  ///     (dist2, site index), the same order nearest() keeps.
  ///   * After the block it stops once (e - slack)^2 > best dist2, where e
  ///     is q's distance to the block's outer edge and slack = 1e-9 cell.
  ///     In exact arithmetic every site outside the block is at least e
  ///     from q. Bucket assignment, the edge and the distances are each
  ///     computed within a few ulps of 1, far below the slack for any grid
  ///     that fits in memory, so every outside site's computed dist2
  ///     exceeds (e - slack)^2 and hence the best: it can neither win nor
  ///     tie, and stopping is exact. nearest()'s own bound, (ring - 1)
  ///     cells, ignores where q sits in its bucket. When the test fails,
  ///     rings >= 2 follow nearest()'s walk and bound.
  ///   * With one bucket (k = 1) it scans every site.
  [[nodiscard]] std::uint32_t nearest_soa(Vec2 q) const noexcept;

  /// Visit every site stored in the Chebyshev ring at distance `ring`
  /// buckets around q's bucket (ring 0 = the bucket itself).
  template <typename Fn>
  void visit_ring(Vec2 q, std::uint32_t ring, Fn&& fn) const {
    const std::int64_t k = k_;
    const std::int64_t bx = bucket_of(q.x);
    const std::int64_t by = bucket_of(q.y);
    auto visit_bucket = [&](std::int64_t cx, std::int64_t cy) {
      const std::size_t b = static_cast<std::size_t>(((cx % k + k) % k) +
                                                     ((cy % k + k) % k) * k);
      for (std::uint32_t i = start_[b]; i < start_[b + 1]; ++i) {
        fn(order_[i]);
      }
    };
    const std::int64_t r = ring;
    if (r == 0) {
      visit_bucket(bx, by);
      return;
    }
    // When the ring wraps past half the grid it would revisit buckets;
    // callers never request such rings (ring_cover clamps), but guard anyway.
    if (2 * r >= k) {
      return;
    }
    for (std::int64_t dx = -r; dx <= r; ++dx) {
      visit_bucket(bx + dx, by - r);
      visit_bucket(bx + dx, by + r);
    }
    for (std::int64_t dy = -r + 1; dy <= r - 1; ++dy) {
      visit_bucket(bx - r, by + dy);
      visit_bucket(bx + r, by + dy);
    }
  }

  /// Minimum torus distance from q to any point of the ring-`ring` buckets
  /// (0 when ring <= 1 since q's own ring-0 bucket touches ring 1).
  [[nodiscard]] double ring_min_dist(Vec2 q, std::uint32_t ring) const noexcept;

  std::vector<Vec2> sites_;
  std::uint32_t k_ = 1;             // buckets per axis
  double cell_ = 1.0;               // bucket width = 1/k
  std::vector<std::uint32_t> start_;  // CSR offsets, size k*k+1
  std::vector<std::uint32_t> order_;  // site indices grouped by bucket
  // SoA mirror of the bucket contents: bucket_x_[i]/bucket_y_[i] are the
  // coordinates of site order_[i]. Candidate scans read these contiguously
  // instead of gathering sites_[order_[i]].
  std::vector<double> bucket_x_;
  std::vector<double> bucket_y_;
  // Branch-free axis wrap: wrap_[t + k_] == t mod k_ for t in [-k_, 2k_).
  std::vector<std::uint32_t> wrap_;

  friend class SpatialGridTestPeer;
};

/// O(n) reference nearest-neighbor for testing the grid.
[[nodiscard]] std::uint32_t brute_force_nearest(std::span<const Vec2> sites,
                                                Vec2 q) noexcept;

}  // namespace geochoice::geometry
