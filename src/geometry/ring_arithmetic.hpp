// ring_arithmetic.hpp — arithmetic on the unit-circumference circle.
//
// The paper's 1-D setting (Section 2): n server points on a circle of
// circumference 1 induce n arcs; the bin of a location is the server whose
// arc contains it. geochoice adopts the consistent-hashing convention that
// server i owns the counterclockwise (successor-direction) arc
// [pos_i, pos_{i+1}): a location x belongs to its *predecessor* server.
// Lemma 3/4's "counterclockwise arc from the jth point" is exactly this arc.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.hpp"

namespace geochoice::geometry {

/// Counterclockwise gap from `from` to `to` on the unit circle, in [0, 1).
[[nodiscard]] inline double ring_gap(double from, double to) noexcept {
  return wrap01(to - from);
}

/// Shortest (undirected) circular distance between two ring positions.
[[nodiscard]] inline double ring_distance(double a, double b) noexcept {
  const double g = ring_gap(a, b);
  return g <= 0.5 ? g : 1.0 - g;
}

/// Index of the owner of location `x` among *sorted* ring positions:
/// the greatest position <= x, wrapping to the last position when x precedes
/// all of them. O(log n) branchless-friendly binary search.
[[nodiscard]] std::size_t ring_owner(std::span<const double> sorted_positions,
                                     double x) noexcept;

/// Batched owner resolution: `out[i] = ring_owner(sorted_positions, xs[i])`
/// for every query, but computed as branchless (cmov) binary searches run
/// in lockstep groups with software prefetch of the next probe level. The
/// group's independent loads overlap in the memory system, so throughput is
/// several times the one-query-at-a-time search on position arrays that
/// spill out of L1/L2. Requires xs.size() == out.size().
void ring_owner_batch(std::span<const double> sorted_positions,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept;

/// Sort values in [0, 1) ascending in expected O(n) for spread-out input.
/// Values are bucketed by their leading bits into B = bit_ceil(n) buckets
/// (bucket of v: floor(v * B), exact since B is a power of two), scattered
/// in bucket order, and each bucket is insertion-sorted; a bucket holding
/// more than a few dozen values is std::sort-ed instead, so clustered
/// input costs O(n log n) and never goes quadratic. The result equals
/// std::sort's. Requires every value in [0, 1); throws std::length_error
/// for n >= 2^32.
void sort_unit_interval(std::vector<double>& values);

/// Arc lengths induced by *sorted* positions: `result[i]` is the length of
/// [pos_i, pos_{i+1}) with wraparound. Lengths sum to exactly ~1.
[[nodiscard]] std::vector<double> arc_lengths(
    std::span<const double> sorted_positions);

/// Number of arcs of length >= threshold. The paper's N_c statistic with
/// threshold = c/n (Lemmas 4 and 5).
[[nodiscard]] std::size_t count_arcs_at_least(std::span<const double> arcs,
                                              double threshold) noexcept;

/// Sum of the `a` largest arc lengths — the quantity bounded by Lemma 6
/// (<= 2 (a/n) ln(n/a) w.h.p.). `a` is clamped to the arc count.
[[nodiscard]] double sum_of_largest(std::span<const double> arcs,
                                    std::size_t a);

}  // namespace geochoice::geometry
