#include "spaces/ring_space.hpp"

#include <cassert>
#include <stdexcept>

namespace geochoice::spaces {

RingSpace::RingSpace(std::vector<double> positions)
    : positions_(std::move(positions)) {
  if (positions_.empty()) {
    throw std::invalid_argument("RingSpace: need at least one server");
  }
  for (double p : positions_) {
    if (!(p >= 0.0 && p < 1.0)) {
      throw std::invalid_argument("RingSpace: positions must lie in [0, 1)");
    }
  }
  geometry::sort_unit_interval(positions_);
  arcs_ = geometry::arc_lengths(positions_);
}

RingSpace RingSpace::random(std::size_t n, rng::DefaultEngine& gen) {
  std::vector<double> pos(n);
  for (double& p : pos) p = rng::uniform01(gen);
  return RingSpace(std::move(pos));
}

RingSpace RingSpace::equally_spaced(std::size_t n) {
  assert(n > 0);
  std::vector<double> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = static_cast<double>(i) / static_cast<double>(n);
  }
  return RingSpace(std::move(pos));
}

}  // namespace geochoice::spaces
