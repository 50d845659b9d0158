// streams.hpp — deterministic stream derivation for parallel Monte-Carlo.
//
// Every geochoice experiment is identified by a 64-bit master seed. Trial t
// draws its engine seed from the Philox bijection of (master_seed, t), so:
//   * two trials never share a seed (Philox is a bijection per key);
//   * the mapping is independent of thread scheduling;
//   * sub-streams (e.g. "server placement" vs "ball choices" within one
//     trial) are derived with distinct purpose tags.
#pragma once

#include <cstdint>

#include "rng/philox.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::rng {

/// Purpose tags keep logically distinct random uses of one trial from
/// overlapping even if consumption counts change between versions.
enum class StreamPurpose : std::uint64_t {
  kServerPlacement = 0x5345525645525321ULL,  // "SERVERS!"
  kBallChoices = 0x42414c4c53212121ULL,      // "BALLS!!!"
  kTieBreaking = 0x5449455352414e44ULL,      // "TIESRAND"
  kWorkload = 0x574f524b4c4f4144ULL,         // "WORKLOAD"
  kNetLatency = 0x4e45544c4154454eULL,       // "NETLATEN"
  kGeneric = 0x47454e4552494321ULL,          // "GENERIC!"
};

/// Seed for trial `trial` of the experiment keyed by `master_seed`.
[[nodiscard]] inline std::uint64_t trial_seed(std::uint64_t master_seed,
                                              std::uint64_t trial) noexcept {
  return philox_hash(master_seed, trial);
}

/// Engine for a (trial, purpose) substream.
[[nodiscard]] inline DefaultEngine make_stream(std::uint64_t master_seed,
                                               std::uint64_t trial,
                                               StreamPurpose purpose) noexcept {
  const auto block =
      philox4x32(master_seed, trial, static_cast<std::uint64_t>(purpose));
  return DefaultEngine(block.lo64() ^ (block.hi64() << 1 | block.hi64() >> 63));
}

/// Engine seeded directly for trial `trial` (single-purpose experiments).
[[nodiscard]] inline DefaultEngine make_trial_engine(
    std::uint64_t master_seed, std::uint64_t trial) noexcept {
  return DefaultEngine(trial_seed(master_seed, trial));
}

}  // namespace geochoice::rng
