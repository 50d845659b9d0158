// structural.cpp — paper_trials: the paper's Tables 1-2 as Monte-Carlo
// max-load trials through the structural front door, sim::run.
//
// Untraced: repeated sim::run calls (engine = auto, threads = all cores),
// each timed by wall and CPU clock. Call 0 of every shape is checked
// against the scalar oracle core::run_process on every trial.
//
// Traced: interleaved obs-off / obs-on front-door pairs give the tracing
// overhead; then sampled trials are replayed from their (seed, trial,
// purpose) streams with spans around the space build, the engine
// sim::resolve_engine chose, the sample and owner-resolve kernels over the
// trial's own points, and core::run_batch_process. The batched engine's
// time minus its sample and resolve kernels is the placement pass.
#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_process.hpp"
#include "core/process.hpp"
#include "parallel/trial_runner.hpp"
#include "rng/streams.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/torus_space.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gc = geochoice;

namespace {

using gc::rng::StreamPurpose;
using gc::sim::SpaceKind;

/// One front-door call shape: space, n servers, m balls, trials per call.
struct Shape {
  SpaceKind space;
  std::uint64_t n;
  std::uint64_t m;
  std::uint64_t trials;
};

[[nodiscard]] std::string kind_name(SpaceKind k) {
  return std::string(gc::sim::to_string(k));
}

[[nodiscard]] gc::sim::Scenario scenario_for(const Shape& s,
                                             std::uint64_t seed) {
  gc::sim::Scenario sc;
  sc.space = s.space;
  sc.num_servers = s.n;
  sc.num_balls = s.m;
  sc.num_choices = 2;
  sc.tie = gc::core::TieBreak::kFirstChoice;
  sc.trials = s.trials;
  sc.seed = seed;
  sc.threads = 0;
  sc.engine = gc::sim::Engine::kAuto;
  return sc;
}

[[nodiscard]] gc::core::ProcessOptions process_options(
    const gc::sim::Scenario& sc) {
  gc::core::ProcessOptions o;
  o.num_balls = sc.balls();
  o.num_choices = sc.num_choices;
  o.tie = sc.tie;
  o.scheme = sc.scheme;
  return o;
}

[[nodiscard]] std::string describe(const gc::stats::IntHistogram& h) {
  std::ostringstream os;
  for (const auto& [value, count] : h.items()) os << value << "x" << count << " ";
  return os.str();
}

/// Span totals of the replayed trials of one shape.
struct Replay {
  double build_ns = 0.0;
  double servers = 0.0;
  double engine_ns = 0.0;
  double sample_ns = 0.0;
  double resolve_ns = 0.0;
  double batched_ns = 0.0;
  double balls = 0.0;
  std::size_t trials = 0;
};

/// The per-trial engines sim::resolve_engine can pick at this workload's
/// size.
template <typename Space>
[[nodiscard]] std::uint32_t run_engine(const std::string& engine,
                                       const Space& space,
                                       const gc::core::ProcessOptions& opt,
                                       gc::rng::DefaultEngine& balls) {
  if (engine == "scalar") return gc::core::run_process(space, opt, balls).max_load;
  if (engine == "batched") {
    return gc::core::run_batch_process(space, opt, balls).max_load;
  }
  throw std::runtime_error("perfbench: no replay for engine " + engine);
}

/// Replays trial `t` of `sc` with spans around each layer.
template <typename Space>
void replay_trial(const gc::sim::Scenario& sc, std::uint64_t t,
                  const std::string& engine, Replay& rp, Result& res) {
  const auto opt = process_options(sc);
  auto servers = gc::rng::make_stream(sc.seed, t,
                                      StreamPurpose::kServerPlacement);
  const auto balls =
      gc::rng::make_stream(sc.seed, t, StreamPurpose::kBallChoices);

  auto t0 = Clock::now();
  const Space space = Space::random(sc.num_servers, servers);
  rp.build_ns += ns_since(t0);
  rp.servers += static_cast<double>(sc.num_servers);

  auto gen = balls;
  t0 = Clock::now();
  const std::uint32_t chosen = run_engine(engine, space, opt, gen);
  rp.engine_ns += ns_since(t0);

  // The batched engine's first two passes, block by block, on the same
  // points the trial drew.
  const std::size_t d = static_cast<std::size_t>(opt.num_choices);
  const std::size_t block = gc::core::BatchOptions{}.block_size;
  std::vector<typename Space::Location> locs(block * d);
  std::vector<gc::spaces::BinIndex> bins(block * d);
  gen = balls;
  for (std::uint64_t done = 0; done < opt.num_balls;) {
    const std::size_t cur = static_cast<std::size_t>(
        std::min<std::uint64_t>(block, opt.num_balls - done));
    const std::span<typename Space::Location> l(locs.data(), cur * d);
    const std::span<gc::spaces::BinIndex> b(bins.data(), cur * d);
    t0 = Clock::now();
    space.sample_block(gen, l);
    const auto t1 = Clock::now();
    space.owner_batch(l, b);
    rp.resolve_ns += ns_since(t1);
    rp.sample_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    done += cur;
  }

  gen = balls;
  t0 = Clock::now();
  const auto batched = gc::core::run_batch_process(space, opt, gen);
  rp.batched_ns += ns_since(t0);
  rp.balls += static_cast<double>(opt.num_balls);
  ++rp.trials;

  if (batched.max_load != chosen) {
    res.fail(kind_name(sc.space) + " trial " + std::to_string(t) + ": " +
                 engine + " engine max load " + std::to_string(chosen) +
                 " != batched " + std::to_string(batched.max_load),
             opt.num_balls);
  }
}

Result run_structural(const Options& opt, const std::vector<Shape>& shapes) {
  Result res;
  const std::size_t hw = hardware_threads();
  const std::size_t S = shapes.size();

  // Set-up: one front-door call per shape with one trial of one ball —
  // the front door's fixed cost plus one space build.
  const auto setup = [&] {
    for (std::size_t j = 0; j < S; ++j) {
      auto sc = scenario_for(shapes[j], call_seed(opt.seed, ~std::uint64_t{j}));
      sc.trials = 1;
      sc.num_balls = 1;
      (void)gc::sim::run(sc);
    }
  };

  std::vector<std::vector<double>> shape_wall(S);
  std::vector<double> busy;
  std::map<std::string, double> engine_trials;
  std::vector<std::pair<gc::sim::Scenario, gc::sim::RunReport>> checked;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto timed = repeat_for(budget, 3, setup, [&](std::uint64_t call) {
    double ops = 0.0, wall = 0.0, busy_s = 0.0;
    for (std::size_t j = 0; j < S; ++j) {
      const auto sc = scenario_for(shapes[j], call_seed(opt.seed, call * S + j));
      const auto t0 = Clock::now();
      auto report = gc::sim::run(sc);
      const double w = seconds_since(t0);
      shape_wall[j].push_back(w);
      wall += w;
      busy_s += report.total_seconds;  // summed per-trial seconds
      engine_trials[std::string(gc::sim::to_string(report.spec.engine))] +=
          static_cast<double>(sc.trials);
      ops += static_cast<double>(sc.trials * sc.balls());
      if (call == 0) checked.emplace_back(sc, std::move(report));
    }
    busy.push_back(busy_s / (wall * static_cast<double>(hw)));
    return ops;
  });
  add_rep_metrics(res, timed);
  const auto& reps = timed.reps;

  for (const auto& [sc, report] : checked) {
    const std::string why = check_structural(sc, report);
    if (!why.empty()) {
      res.fail(kind_name(sc.space) + ": " + why, sc.trials * sc.balls());
    }
    res.note("engine." + kind_name(sc.space),
             std::string(gc::sim::to_string(report.spec.engine)));
    res.note("threads." + kind_name(sc.space),
             static_cast<double>(report.spec.threads));
  }
  for (std::size_t j = 0; j < S; ++j) {
    const double balls =
        static_cast<double>(shapes[j].trials * shapes[j].m);
    std::vector<double> tput;
    for (const double w : shape_wall[j]) tput.push_back(balls / w);
    res.set(kind_name(shapes[j].space) + "_balls_per_sec",
            median(std::move(tput)), "1/s", shape_wall[j].size());
  }
  res.set("parallel.trial_busy_frac", median(busy), "frac", busy.size());
  for (const auto& [engine, trials] : engine_trials) {
    res.set("sim.engine_trials." + engine, trials, "count", reps.size());
    res.note("engine_trials." + engine, trials);
  }
  if (!opt.trace) return res;

  // Tracing overhead: the same front-door call with the obs registry off
  // and on, interleaved, alternating which runs first.
  std::vector<double> ratio;
  std::map<std::string, double> counters;
  const auto start = Clock::now();
  for (std::uint64_t call = 0;
       ratio.size() < 3 || seconds_since(start) < opt.seconds / 4; ++call) {
    double off = 0.0, on = 0.0;
    for (std::size_t j = 0; j < S; ++j) {
      auto sc = scenario_for(shapes[j],
                             call_seed(opt.seed, (1ull << 32) + call * S + j));
      for (int k = 0; k < 2; ++k) {
        sc.obs = (k == 0) == (call % 2 == 0);
        const auto t0 = Clock::now();
        const auto report = gc::sim::run(sc);
        (sc.obs ? on : off) += seconds_since(t0);
        for (const auto& m : report.metrics) counters[m.name] += m.value;
      }
    }
    ratio.push_back(on / off);
  }
  res.set("trace.overhead_frac", median(ratio) - 1.0, "frac", ratio.size());
  for (const auto& [name, value] : counters) res.note("obs." + name, value);

  // Layer replays of sampled trials from the checked calls.
  std::vector<Replay> replay(S);
  for (std::size_t j = 0; j < S; ++j) {
    const auto& sc = checked[j].first;
    const std::string engine =
        std::string(gc::sim::to_string(gc::sim::resolve_engine(sc)));
    const std::uint64_t sampled = std::min<std::uint64_t>(sc.trials, 4);
    for (std::uint64_t i = 0; i < sampled; ++i) {
      const std::uint64_t t = i * sc.trials / sampled;
      if (sc.space == SpaceKind::kTorus) {
        replay_trial<gc::spaces::TorusSpace>(sc, t, engine, replay[j], res);
      } else {
        replay_trial<gc::spaces::RingSpace>(sc, t, engine, replay[j], res);
      }
    }
  }

  Replay all;
  double accounted = 0.0, actual = 0.0;
  for (std::size_t j = 0; j < S; ++j) {
    const Replay& r = replay[j];
    const std::string kind = kind_name(shapes[j].space);
    res.set("spaces." + kind + "_build_ns_per_server", r.build_ns / r.servers,
            "ns", r.trials);
    res.set("geometry." + kind + "_resolve_ns_per_ball",
            r.resolve_ns / r.balls, "ns", r.trials);
    all.build_ns += r.build_ns;
    all.servers += r.servers;
    all.engine_ns += r.engine_ns;
    all.sample_ns += r.sample_ns;
    all.resolve_ns += r.resolve_ns;
    all.batched_ns += r.batched_ns;
    all.balls += r.balls;
    all.trials += r.trials;
    // Span time per front-door call: per-trial spans times trials, spread
    // over the lanes the call runs trials on.
    const auto& sc = checked[j].first;
    const double lanes =
        static_cast<double>(std::min<std::uint64_t>(hw, sc.trials));
    accounted += (r.build_ns + r.engine_ns) * 1e-9 /
                 static_cast<double>(r.trials) *
                 static_cast<double>(sc.trials) / lanes;
    actual += median(shape_wall[j]);
  }
  const double place_ns = all.batched_ns - all.sample_ns - all.resolve_ns;
  const std::size_t n = all.trials;
  res.set("spaces.build_ns_per_server", all.build_ns / all.servers, "ns", n);
  res.set("spaces.build_share", all.build_ns / (all.build_ns + all.engine_ns),
          "frac", n);
  res.set("rng.sample_ns_per_ball", all.sample_ns / all.balls, "ns", n);
  res.set("geometry.resolve_ns_per_ball", all.resolve_ns / all.balls, "ns", n);
  res.set("core.place_ns_per_ball", place_ns / all.balls, "ns", n);
  res.set("core.place_share", place_ns / all.batched_ns, "frac", n);
  res.set("sim.uncovered_frac", 1.0 - accounted / actual, "frac", n);
  return res;
}

}  // namespace

std::string check_structural(const gc::sim::Scenario& sc,
                             const gc::sim::RunReport& r) {
  const auto opt = process_options(sc);
  const auto maxima = gc::parallel::run_trials(
      sc.trials, sc.seed,
      [&](std::uint64_t t, gc::rng::DefaultEngine&) -> std::uint32_t {
        auto servers = gc::rng::make_stream(sc.seed, t,
                                            StreamPurpose::kServerPlacement);
        auto balls =
            gc::rng::make_stream(sc.seed, t, StreamPurpose::kBallChoices);
        if (sc.space == SpaceKind::kTorus) {
          const auto space =
              gc::spaces::TorusSpace::random(sc.num_servers, servers);
          return gc::core::run_process(space, opt, balls).max_load;
        }
        const auto space = gc::spaces::RingSpace::random(sc.num_servers, servers);
        return gc::core::run_process(space, opt, balls).max_load;
      },
      sc.threads);
  gc::stats::IntHistogram oracle;
  for (const std::uint32_t m : maxima) oracle.add(m);
  if (oracle == r.max_load) return {};
  return "max-load histogram " + describe(r.max_load) +
         "differs from the scalar oracle's " + describe(oracle);
}

Result run_paper_trials(const Options& opt) {
  return run_structural(opt, {{SpaceKind::kRing, 1u << 16, 1u << 16, 64},
                              {SpaceKind::kTorus, 1u << 16, 1u << 16, 64}});
}

}  // namespace perfbench
