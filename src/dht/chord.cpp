#include "dht/chord.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "geometry/ring_arithmetic.hpp"

namespace geochoice::dht {

ChordRing::ChordRing(std::vector<double> node_ids)
    : ids_(std::move(node_ids)) {
  if (ids_.empty()) {
    throw std::invalid_argument("ChordRing: need at least one node");
  }
  for (double id : ids_) {
    if (!(id >= 0.0 && id < 1.0)) {
      throw std::invalid_argument("ChordRing: ids must lie in [0, 1)");
    }
  }
  geometry::sort_unit_interval(ids_);
}

ChordRing ChordRing::random(std::size_t n, rng::DefaultEngine& gen) {
  std::vector<double> ids(n);
  for (double& id : ids) id = rng::uniform01(gen);
  return ChordRing(std::move(ids));
}

std::uint32_t ChordRing::successor(double key) const noexcept {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (it == ids_.end()) return 0;  // wrap to the first node
  return static_cast<std::uint32_t>(it - ids_.begin());
}

double ChordRing::owned_arc(std::uint32_t i) const noexcept {
  const std::size_t n = ids_.size();
  const std::size_t pred = (i == 0) ? n - 1 : i - 1;
  return geometry::ring_gap(ids_[pred], ids_[i]);
}

void ChordRing::build_fingers(int fingers) {
  const std::size_t n = ids_.size();
  if (fingers <= 0) {
    fingers = static_cast<int>(
                  std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(
                      2, n))))) +
              1;
  }
  fingers_per_node_ = fingers;
  const auto f = static_cast<std::size_t>(fingers);
  // Finger k of node i is successor(wrap01(id_i + 2^{-(k+1)})): k = 0 is
  // the halfway finger, larger k are progressively closer (Chord's table,
  // normalized). For a fixed k the targets rise with i until they pass
  // 1.0, wrap once, and rise again (rounding is monotone), so one cursor
  // per level walks the ids forward, restarting at the wrap, in place of
  // n binary searches. A cursor moves about once per node, so two
  // branchless steps cover most moves before the loop takes the rest.
  struct Level {
    double span;
    std::size_t cursor;
    bool wrapped;
  };
  std::vector<Level> levels(f);
  for (std::size_t k = 0; k < f; ++k) {
    levels[k] = {std::ldexp(1.0, -static_cast<int>(k + 1)), 0, false};
  }
  // The ids plus a sentinel above every target: cursors stop at n unchecked.
  std::vector<double> keys(n + 1, 2.0);
  std::copy(ids_.begin(), ids_.end(), keys.begin());
  const double* const key = keys.data();
  std::vector<std::uint32_t> finger(f);  // node i's fingers, level order

  // Each node's next-hop candidates (successor link + fingers) by
  // descending progress, so next_hop() is a first-hit scan instead of a
  // full ring_gap pass per forwarded message. Two distinct candidates can
  // never make equal progress from the same node (ids are distinct), so
  // the order fixes the same argmax the scan took. Finger progress already
  // falls as k grows, so a stable insertion in link-then-finger order
  // places each candidate in O(1) shifts; repeats of the node just placed
  // are dropped.
  hop_stride_ = fingers + 1;
  const std::size_t stride = static_cast<std::size_t>(hop_stride_);
  hop_progress_.assign(n * stride, 2.0);  // 2.0: sentinel no ring_gap hits
  hop_node_.assign(n * stride, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double id = key[i];
    for (std::size_t k = 0; k < f; ++k) {
      Level& level = levels[k];
      double target = id + level.span;
      if (target >= 1.0) {  // wrap01 on [0, 2): exact, no floor needed
        target -= 1.0;
        if (!level.wrapped) {
          level.wrapped = true;
          level.cursor = 0;
        }
      }
      std::size_t j = level.cursor;
      j += static_cast<std::size_t>(key[j] < target);
      j += static_cast<std::size_t>(key[j] < target);
      while (key[j] < target) ++j;
      level.cursor = j;
      finger[k] = static_cast<std::uint32_t>(j == n ? 0 : j);
    }

    double* const prog = hop_progress_.data() + i * stride;
    std::uint32_t* const node = hop_node_.data() + i * stride;
    std::size_t len = 0;
    const auto place = [&](std::uint32_t cand) {
      if (cand == i) return;
      // ring_gap(ids_[i], ids_[cand]) without libm floor: the difference
      // lies in (-1, 1), so one compare wraps it; + 0.0 maps -0.0 to +0.0
      // and the guard maps a rounded 1.0 to 0.0, both as wrap01 does.
      double p = ids_[cand] - ids_[i] + 0.0;
      if (p < 0.0) {
        p += 1.0;
        if (p >= 1.0) p = 0.0;
      }
      std::size_t j = len;
      while (j > 0 && prog[j - 1] < p) --j;
      if (j > 0 && prog[j - 1] == p && node[j - 1] == cand) return;
      for (std::size_t t = len; t > j; --t) {
        prog[t] = prog[t - 1];
        node[t] = node[t - 1];
      }
      prog[j] = p;
      node[j] = cand;
      ++len;
    };
    place(static_cast<std::uint32_t>((i + 1) % n));
    for (const std::uint32_t cand : finger) place(cand);
  }
}

std::uint32_t ChordRing::next_hop(std::uint32_t from, double key) const {
  if (!has_fingers()) {
    throw std::logic_error("ChordRing::next_hop: call build_fingers() first");
  }
  const std::size_t n = ids_.size();
  const double dist = geometry::ring_gap(ids_[from], key);
  // Candidates (successor link + fingers) are presorted by descending
  // progress at build_fingers() time: the first one not passing the key is
  // the greedy hop. Padding entries carry progress 2.0, which no dist in
  // [0, 1) reaches, so short rows fall through to the successor fallback.
  const std::size_t base =
      static_cast<std::size_t>(from) * static_cast<std::size_t>(hop_stride_);
  for (int j = 0; j < hop_stride_; ++j) {
    if (hop_progress_[base + static_cast<std::size_t>(j)] <= dist) {
      return hop_node_[base + static_cast<std::size_t>(j)];
    }
  }
  // No node lies in (from, key]: the immediate successor owns the key.
  return (from + 1) % static_cast<std::uint32_t>(n);
}

LookupResult ChordRing::lookup(std::uint32_t from_node, double key) const {
  if (!has_fingers()) {
    throw std::logic_error("ChordRing::lookup: call build_fingers() first");
  }
  const std::size_t n = ids_.size();
  const std::uint32_t owner = successor(key);
  std::uint32_t cur = from_node;
  std::uint32_t hops = 0;
  while (cur != owner && hops <= n) {
    cur = next_hop(cur, key);
    ++hops;
  }
  return {owner, hops};
}

}  // namespace geochoice::dht
