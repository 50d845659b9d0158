// chord_reference.hpp — the straightforward ring builds, kept as oracles.
//
// dht::ChordRing and spaces::RingSpace build their tables with linear-time
// kernels (geometry::sort_unit_interval, a cursor sweep per finger level,
// insertion-placed hop rows). This header keeps the obvious versions those
// kernels must reproduce exactly: std::sort of the ids, std::lower_bound
// for successor, one binary search per (node, finger), and a per-node
// sort + unique of the next-hop candidates. Tests diff the fast tables
// against these; bench/net_throughput times them for the
// ring_build_speedup gate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/ring_arithmetic.hpp"

namespace geochoice::testing {

/// Chord ownership by binary search: first id >= key, wrapping to 0.
[[nodiscard]] inline std::uint32_t reference_successor(
    std::span<const double> sorted_ids, double key) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), key);
  if (it == sorted_ids.end()) return 0;
  return static_cast<std::uint32_t>(it - sorted_ids.begin());
}

/// The finger table, row-major (node, k), and the hop rows built from it
/// in ChordRing's layout: hop_stride entries by descending progress,
/// padded with progress 2.0 and node 0. ChordRing keeps only the hop rows.
struct ChordTables {
  int fingers_per_node = 0;
  std::vector<std::uint32_t> fingers;
  int hop_stride = 0;
  std::vector<double> hop_progress;
  std::vector<std::uint32_t> hop_node;
};

[[nodiscard]] inline ChordTables reference_chord_tables(
    std::span<const double> sorted_ids, int fingers) {
  const std::size_t n = sorted_ids.size();
  ChordTables t;
  t.fingers_per_node = fingers;
  t.fingers.assign(n * static_cast<std::size_t>(fingers), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < fingers; ++k) {
      const double target =
          geometry::wrap01(sorted_ids[i] + std::ldexp(1.0, -(k + 1)));
      t.fingers[i * static_cast<std::size_t>(fingers) +
                static_cast<std::size_t>(k)] =
          reference_successor(sorted_ids, target);
    }
  }

  t.hop_stride = fingers + 1;
  const std::size_t stride = static_cast<std::size_t>(t.hop_stride);
  t.hop_progress.assign(n * stride, 2.0);
  t.hop_node.assign(n * stride, 0);
  std::vector<std::pair<double, std::uint32_t>> cands;
  for (std::size_t i = 0; i < n; ++i) {
    cands.clear();
    const auto consider = [&](std::uint32_t cand) {
      if (cand == static_cast<std::uint32_t>(i)) return;
      cands.emplace_back(geometry::ring_gap(sorted_ids[i], sorted_ids[cand]),
                         cand);
    };
    consider(static_cast<std::uint32_t>((i + 1) % n));
    for (int k = 0; k < fingers; ++k) {
      consider(t.fingers[i * static_cast<std::size_t>(fingers) +
                         static_cast<std::size_t>(k)]);
    }
    std::sort(cands.begin(), cands.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    for (std::size_t j = 0; j < cands.size(); ++j) {
      t.hop_progress[i * stride + j] = cands[j].first;
      t.hop_node[i * stride + j] = cands[j].second;
    }
  }
  return t;
}

/// Sorted ids plus tables: the whole reference ring build.
[[nodiscard]] inline ChordTables reference_chord_build(std::vector<double>& ids,
                                                       int fingers) {
  std::sort(ids.begin(), ids.end());
  return reference_chord_tables(ids, fingers);
}

}  // namespace geochoice::testing
