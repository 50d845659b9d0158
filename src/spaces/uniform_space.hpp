// uniform_space.hpp — the classic Azar–Broder–Karlin–Upfal setting:
// n equiprobable bins. The baseline every geometric result is compared
// against, and the space for which the fluid-limit ODE (core/theory.hpp)
// is an exact asymptotic oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "rng/block_sampler.hpp"
#include "rng/distributions.hpp"
#include "spaces/space.hpp"

namespace geochoice::spaces {

class UniformSpace {
 public:
  /// A location *is* a bin index: the geometric structure is trivial.
  using Location = BinIndex;

  /// Lets the batched engine sample straight into the bin buffer and skip
  /// the resolve pass entirely.
  static constexpr bool kOwnerIsIdentity = true;

  explicit UniformSpace(std::size_t n) : n_(n) {}

  [[nodiscard]] std::size_t bin_count() const noexcept { return n_; }

  [[nodiscard]] Location sample(rng::DefaultEngine& gen) const noexcept {
    return static_cast<BinIndex>(rng::uniform_below(gen, n_));
  }

  /// Bulk sample: draw-for-draw identical to calling sample() per element
  /// (including Lemire rejection draws).
  void sample_block(rng::DefaultEngine& gen,
                    std::span<Location> out) const noexcept {
    rng::fill_uniform_below(gen, n_, out);
  }

  [[nodiscard]] BinIndex owner(Location loc) const noexcept { return loc; }

  /// Bulk owner lookup: locations already are bin indices.
  void owner_batch(std::span<const Location> locs,
                   std::span<BinIndex> out) const noexcept {
    std::copy(locs.begin(), locs.end(), out.begin());
  }

  [[nodiscard]] double region_measure(BinIndex) const noexcept {
    return 1.0 / static_cast<double>(n_);
  }

 private:
  std::uint64_t n_;
};

static_assert(GeometricSpace<UniformSpace>);

}  // namespace geochoice::spaces
