// chord.hpp — a Chord-style consistent-hashing ring with finger tables.
//
// The paper's motivating application (Section 1.1): servers and keys hash
// onto a one-dimensional ring; a key is stored at its *successor* — the
// first server clockwise from it (Chord's convention, the mirror image of
// the arc-ownership convention in spaces::RingSpace; both induce the same
// arc-length distribution). Each server keeps a logarithmic finger table;
// greedy routing resolves a lookup in O(log n) hops.
//
// This module exists so the two-choice placement can be evaluated *in situ*
// — key distribution per server AND lookup cost — against plain consistent
// hashing and Chord's virtual-servers fix (virtual_servers.hpp).
//
// Costs, n nodes, F = fingers per node:
//   * construction: expected O(n). Ids are bucket-sorted by their leading
//     bits (geometry::sort_unit_interval); a bucket crowded by clustered,
//     user-supplied ids falls back to std::sort, so the worst case is
//     O(n log n), never quadratic.
//   * successor(key): O(log n), a lower_bound over the sorted ids.
//   * build_fingers(): O(n F). Each finger level is resolved by one cursor
//     sweeping the sorted ids (targets id_i + 2^-(k+1) rise with i and wrap
//     once), and node i's fingers go straight into its next-hop row,
//     insertion-placed in finger order, which already has falling
//     progress; the rows are the only finger state kept. Measured on a
//     4-vCPU Xeon VM (gcc 12, Release): NetSimulator::make_ring takes
//     ~0.5 us/node at n = 2^14 and ~0.75 s at n = 2^20 (1.3 us/node and
//     2.3 s with a std::sort and a binary search per finger).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::dht {

struct LookupResult {
  /// Node index (into the sorted ring) that owns the key.
  std::uint32_t owner = 0;
  /// Routing hops taken from the start node (0 when the start node already
  /// owns the key).
  std::uint32_t hops = 0;
};

class ChordRing {
 public:
  /// Build from node identifiers in [0, 1); sorted internally. Node index i
  /// refers to the i-th identifier in sorted order.
  explicit ChordRing(std::vector<double> node_ids);

  /// n nodes hashed uniformly at random.
  static ChordRing random(std::size_t n, rng::DefaultEngine& gen);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return ids_.size();
  }
  [[nodiscard]] double node_id(std::uint32_t i) const noexcept {
    return ids_[i];
  }
  [[nodiscard]] std::span<const double> node_ids() const noexcept {
    return ids_;
  }

  /// Chord ownership: index of the first node with id >= key (wrapping to
  /// node 0 past the last node).
  [[nodiscard]] std::uint32_t successor(double key) const noexcept;

  /// Length of the arc owned by node i (from its predecessor to it).
  [[nodiscard]] double owned_arc(std::uint32_t i) const noexcept;

  /// Build finger tables. Finger k of node i points to
  /// successor(id_i + 2^{-(k+1)}), k = 0 .. fingers-1; `fingers` defaults to
  /// ceil(log2 n) + 1. The fingers are kept only as node i's next-hop row
  /// (hop_node_row). Must be called before lookup().
  void build_fingers(int fingers = 0);
  [[nodiscard]] bool has_fingers() const noexcept {
    return fingers_per_node_ > 0;
  }
  [[nodiscard]] int fingers_per_node() const noexcept {
    return fingers_per_node_;
  }

  /// Node i's presorted next-hop row (see hop_progress_ below): progress
  /// and node of each candidate, padding included. Read-only view for
  /// differential tests. Requires build_fingers().
  [[nodiscard]] std::span<const double> hop_progress_row(
      std::uint32_t i) const noexcept {
    const auto stride = static_cast<std::size_t>(hop_stride_);
    return std::span<const double>(hop_progress_).subspan(i * stride, stride);
  }
  [[nodiscard]] std::span<const std::uint32_t> hop_node_row(
      std::uint32_t i) const noexcept {
    const auto stride = static_cast<std::size_t>(hop_stride_);
    return std::span<const std::uint32_t>(hop_node_).subspan(i * stride,
                                                             stride);
  }

  /// One greedy routing step: the neighbour of `from` (successor link or
  /// finger) making the most clockwise progress toward `key` without
  /// passing it; the plain successor when no neighbour lands in
  /// (from, key]. This is the per-message decision a node makes in the
  /// discrete-event simulator (net/); lookup() iterates it to completion.
  /// Requires build_fingers().
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t from, double key) const;

  /// Greedy Chord routing from `from_node` to the owner of `key`: repeatedly
  /// jump to the farthest finger that does not overshoot the key, falling
  /// back to the successor link. Requires build_fingers().
  [[nodiscard]] LookupResult lookup(std::uint32_t from_node,
                                    double key) const;

 private:
  std::vector<double> ids_;      // sorted
  int fingers_per_node_ = 0;
  /// Routing acceleration, built by build_fingers(): per node, its
  /// candidate next hops (successor link + fingers, self and duplicates
  /// dropped) sorted by descending clockwise progress, progress
  /// precomputed. next_hop() then returns the first candidate whose
  /// progress does not pass the key — the same argmax the naive scan
  /// computes (from one origin, distinct nodes cannot tie on progress),
  /// found without recomputing a single ring_gap. SoA so the scan touches
  /// one stream of doubles.
  std::vector<double> hop_progress_;     // node_count * hop_stride_
  std::vector<std::uint32_t> hop_node_;  // node_count * hop_stride_
  int hop_stride_ = 0;  // candidates per node, short rows padded
};

}  // namespace geochoice::dht
