// latency.hpp — pluggable link-latency models for the network simulator.
//
// Every message traversal samples one delay from the model, drawn from a
// dedicated rng substream (StreamPurpose::kNetLatency) so that the latency
// draw sequence — and with it the whole event trace — is a function of
// (seed, config) alone. Three shapes cover the studies the simulator
// targets: constant (the latency -> 0 validation limit and LAN-like
// settings), uniform (bounded jitter), and lognormal (the heavy-ish WAN
// tail that makes p99 interesting).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net {

enum class LatencyKind {
  kConstant,   // every link takes exactly `a`
  kUniform,    // uniform in [a, b)
  kLognormal,  // exp(Normal(a, b)): a = mu, b = sigma (log scale)
};

[[nodiscard]] inline std::string_view to_string(LatencyKind k) noexcept {
  switch (k) {
    case LatencyKind::kConstant:
      return "constant";
    case LatencyKind::kUniform:
      return "uniform";
    case LatencyKind::kLognormal:
      return "lognormal";
  }
  return "?";
}

[[nodiscard]] inline LatencyKind latency_kind_from_string(
    std::string_view name) {
  if (name == "constant") return LatencyKind::kConstant;
  if (name == "uniform") return LatencyKind::kUniform;
  if (name == "lognormal") return LatencyKind::kLognormal;
  throw std::invalid_argument("unknown latency kind: " + std::string(name));
}

struct LatencyModel {
  LatencyKind kind = LatencyKind::kConstant;
  /// constant: the delay; uniform: lower bound; lognormal: mu (log scale).
  double a = 1.0;
  /// uniform: upper bound; lognormal: sigma (log scale); unused otherwise.
  double b = 0.0;
  /// Lognormal only: hard lower clamp on every sampled delay (a power of
  /// two by default, so the clamp arithmetic is exact). The lognormal's
  /// support would otherwise reach arbitrarily close to zero, which is
  /// unphysical for a network link. Constant/uniform models have an
  /// intrinsic minimum (a) and ignore this field.
  double floor = kDefaultLognormalFloor;

  static constexpr double kDefaultLognormalFloor = 0.015625;  // 2^-6

  /// Zero-delay model: the limit in which the message-level two-choice
  /// process collapses to the sequential run_process allocation.
  [[nodiscard]] static LatencyModel zero() noexcept {
    return {LatencyKind::kConstant, 0.0, 0.0};
  }
  [[nodiscard]] static LatencyModel constant(double delay) noexcept {
    return {LatencyKind::kConstant, delay, 0.0};
  }
  [[nodiscard]] static LatencyModel uniform(double lo, double hi) noexcept {
    return {LatencyKind::kUniform, lo, hi};
  }
  [[nodiscard]] static LatencyModel lognormal(
      double mu, double sigma,
      double floor = kDefaultLognormalFloor) noexcept {
    return {LatencyKind::kLognormal, mu, sigma, floor};
  }
  /// Each kind's default parameters: constant(1), uniform(0.5, 1.5),
  /// lognormal(0, 1). A CLI that switches the kind starts from these.
  [[nodiscard]] static LatencyModel canonical(LatencyKind k) noexcept {
    switch (k) {
      case LatencyKind::kConstant:
        return constant(1.0);
      case LatencyKind::kUniform:
        return uniform(0.5, 1.5);
      case LatencyKind::kLognormal:
        return lognormal(0.0, 1.0);
    }
    return constant(1.0);
  }

  /// One link delay. Consumes engine draws even for the constant model only
  /// when needed (constant consumes none), keeping the draw count — and so
  /// the trace — stable under model-parameter changes but not model-kind
  /// changes: 0 words (constant), 1 (uniform), 2 (lognormal's Box–Muller
  /// pair).
  [[nodiscard]] double sample(rng::DefaultEngine& gen) const noexcept {
    switch (kind) {
      case LatencyKind::kConstant:
        return a;
      case LatencyKind::kUniform:
        return rng::uniform_real(gen, a, b);
      case LatencyKind::kLognormal:
        return std::max(floor, std::exp(a + b * rng::normal(gen)));
    }
    return a;
  }

  /// Expected link delay — the time scale of the model. Used to seed the
  /// calendar queue's day width (event_queue.hpp); never drawn from in the
  /// simulation itself, so it cannot perturb a trace.
  [[nodiscard]] double mean() const noexcept {
    switch (kind) {
      case LatencyKind::kConstant:
        return a;
      case LatencyKind::kUniform:
        return 0.5 * (a + b);
      case LatencyKind::kLognormal:
        return std::exp(a + 0.5 * b * b);
    }
    return a;
  }

  void validate() const {
    switch (kind) {
      case LatencyKind::kConstant:
        if (a < 0.0) throw std::invalid_argument("latency: negative constant");
        return;
      case LatencyKind::kUniform:
        if (a < 0.0 || b < a) {
          throw std::invalid_argument("latency: need 0 <= lo <= hi");
        }
        return;
      case LatencyKind::kLognormal:
        if (b < 0.0) throw std::invalid_argument("latency: negative sigma");
        if (!(floor > 0.0)) {
          throw std::invalid_argument(
              "latency: lognormal needs a positive floor");
        }
        return;
    }
  }
};

}  // namespace geochoice::net
