// distributions.hpp — variate generation on top of any
// std::uniform_random_bit_generator producing 64-bit words.
//
// The standard library's <random> distributions are not guaranteed to be
// reproducible across implementations; every distribution used by geochoice
// experiments is defined here with a fixed algorithm so that a (seed,
// algorithm) pair pins down a simulation exactly.
#pragma once

#include <cassert>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <random>  // std::uniform_random_bit_generator

namespace geochoice::rng {

/// Any generator producing full-range uint64 words.
template <typename G>
concept Engine64 =
    std::uniform_random_bit_generator<G> &&
    std::same_as<typename G::result_type, std::uint64_t>;

/// Uniform double in [0, 1) with 53 random bits of mantissa. This is the
/// canonical "hash to the unit circle / unit torus" primitive of the paper.
template <Engine64 G>
[[nodiscard]] double uniform01(G& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
template <Engine64 G>
[[nodiscard]] double uniform_real(G& gen, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(gen);
}

/// Uniform integer in [0, n) by Lemire's nearly-divisionless method
/// ("Fast random integer generation in an interval", TOMACS 2019).
/// Exactly unbiased; at most one multiply on the fast path.
template <Engine64 G>
[[nodiscard]] std::uint64_t uniform_below(G& gen, std::uint64_t n) noexcept {
  assert(n > 0);
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;  // 2^64 mod n
    while (l < t) {
      x = gen();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform integer in [lo, hi] inclusive.
template <Engine64 G>
[[nodiscard]] std::int64_t uniform_int(G& gen, std::int64_t lo,
                                       std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>(gen());
  return lo + static_cast<std::int64_t>(uniform_below(gen, span));
}

/// Bernoulli(p) trial.
template <Engine64 G>
[[nodiscard]] bool bernoulli(G& gen, double p) noexcept {
  return uniform01(gen) < p;
}

/// Exponential(rate) variate by inversion. Used by the Poissonized
/// ring/torus models and churn workloads.
template <Engine64 G>
[[nodiscard]] double exponential(G& gen, double rate) noexcept {
  assert(rate > 0.0);
  // 1 - U in (0, 1] avoids log(0).
  return -std::log1p(-uniform01(gen)) / rate;
}

/// Geometric(p) on {0, 1, 2, ...}: number of failures before first success.
template <Engine64 G>
[[nodiscard]] std::uint64_t geometric(G& gen, double p) noexcept {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return static_cast<std::uint64_t>(
      std::floor(std::log1p(-uniform01(gen)) / std::log1p(-p)));
}

/// Poisson(mean) by inversion for small means and PTRD-free normal
/// approximation fallback for large means (mean > 64). The experiments only
/// need small means (Poissonized arrivals), but the fallback keeps the
/// function total.
template <Engine64 G>
[[nodiscard]] std::uint64_t poisson(G& gen, double mean) noexcept {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth inversion in the log domain to avoid underflow.
    const double l = -mean;
    double acc = 0.0;
    std::uint64_t k = 0;
    while (true) {
      acc += std::log1p(-uniform01(gen));  // log of uniform product
      if (acc < l) return k;
      ++k;
    }
  }
  // Normal approximation with continuity correction; adequate for the
  // tail-insensitive uses in geochoice workload generators.
  const double u1 = uniform01(gen);
  const double u2 = uniform01(gen);
  const double z = std::sqrt(-2.0 * std::log1p(-u1)) *
                   std::cos(6.283185307179586476925286766559 * u2);
  const double v = mean + std::sqrt(mean) * z + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

/// Standard normal via Box–Muller (cosine branch).
template <Engine64 G>
[[nodiscard]] double normal(G& gen) noexcept {
  const double u1 = uniform01(gen);
  const double u2 = uniform01(gen);
  return std::sqrt(-2.0 * std::log1p(-u1)) *
         std::cos(6.283185307179586476925286766559 * u2);
}

}  // namespace geochoice::rng
