// trial_runner.hpp — deterministic parallel Monte-Carlo trials.
//
// run_trials(T, seed, trial_fn) evaluates `trial_fn(trial_index, engine)`
// for T independent trials, each with an engine derived from
// philox(seed, trial_index). The result vector is indexed by trial, so the
// output is bit-identical for any thread count — the property the
// determinism tests pin down.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "rng/streams.hpp"

namespace geochoice::parallel {

/// Run `trials` independent trials; returns one R per trial, in trial
/// order. `fn` signature: R fn(std::uint64_t trial, rng::DefaultEngine&).
template <typename Fn,
          typename R = std::invoke_result_t<Fn, std::uint64_t,
                                            rng::DefaultEngine&>>
[[nodiscard]] std::vector<R> run_trials(std::uint64_t trials,
                                        std::uint64_t master_seed, Fn&& fn,
                                        std::size_t threads = 0) {
  std::vector<R> results(trials);
  parallel_for(
      0, trials,
      [&](std::size_t t) {
        auto engine = rng::make_trial_engine(master_seed, t);
        results[t] = fn(static_cast<std::uint64_t>(t), engine);
      },
      threads);
  return results;
}

}  // namespace geochoice::parallel
