// Tests for the sim::Scenario front door: the engine-equivalence matrix
// (scalar / batched bit-identical through the façade for deterministic
// tie-breaks, across every space), kAuto resolution, validation,
// resolved-spec echo, and the CSV/JSON reporting helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <system_error>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/scenario.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

constexpr gm::SpaceKind kAllSpaces[] = {
    gm::SpaceKind::kRing,     gm::SpaceKind::kTorus,
    gm::SpaceKind::kUniform,  gm::SpaceKind::kTorusNd,
    gm::SpaceKind::kWeighted, gm::SpaceKind::kChordNet,
};

gm::Scenario small_scenario(gm::SpaceKind space, gc::TieBreak tie,
                            gm::Engine engine) {
  gm::Scenario sc;
  sc.space = space;
  sc.engine = engine;
  sc.num_servers = 96;
  sc.num_balls = 192;
  sc.num_choices = 2;
  sc.tie = tie;
  sc.trials = 6;
  sc.seed = 0x5eed;
  sc.torus_dims = 3;
  sc.measure_samples = 2048;  // keep the torus-nd estimate cheap
  return sc;
}

}  // namespace

// ------------------------------------------------- engine-equivalence matrix

// The heart of the façade contract: for deterministic tie-breaks every
// engine consumes the same trial streams, so the max-load histogram is
// bit-identical engine-to-engine — across the full space matrix, not
// just the pairwise pins in test_batch_process.
TEST(ScenarioMatrix, EnginesBitIdenticalForDeterministicTies) {
  for (const auto space : kAllSpaces) {
    for (const auto tie :
         {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
          gc::TieBreak::kSmallerRegion, gc::TieBreak::kLargerRegion}) {
      const auto scalar =
          gm::run(small_scenario(space, tie, gm::Engine::kScalar));
      ASSERT_EQ(scalar.max_load.total(), 6u);
      const auto batched =
          gm::run(small_scenario(space, tie, gm::Engine::kBatched));
      EXPECT_EQ(scalar.max_load, batched.max_load)
          << "space=" << gm::to_string(space)
          << " tie=" << gc::to_string(tie);
    }
  }
}

// kRandom is equal in distribution, not bit-equal (the batched engine
// interleaves tie draws at block boundaries) — but every engine must
// still run every space, produce one histogram entry per trial, and stay
// within the coarse max-load band the theory fixes at this size.
TEST(ScenarioMatrix, AllEnginesRunAllSpacesWithRandomTies) {
  for (const auto space : kAllSpaces) {
    for (const auto engine : {gm::Engine::kScalar, gm::Engine::kBatched}) {
      const auto r = gm::run(small_scenario(space, gc::TieBreak::kRandom,
                                            engine));
      EXPECT_EQ(r.max_load.total(), 6u);
      EXPECT_GE(r.max_load.min_value(), 2u);
      // Zipf weights (alpha = 1) are deliberately skewed: two choices
      // bound the max load but at a higher constant than the
      // near-uniform geometric spaces.
      const std::uint64_t cap = space == gm::SpaceKind::kWeighted ? 24 : 12;
      EXPECT_LE(r.max_load.max_value(), cap)
          << "space=" << gm::to_string(space)
          << " engine=" << gm::to_string(engine);
    }
  }
}

TEST(ScenarioMatrix, ThreadCountInvariance) {
  for (const auto engine : {gm::Engine::kScalar, gm::Engine::kBatched}) {
    auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                             engine);
    sc.threads = 1;
    const auto h1 = gm::run(sc).max_load;
    sc.threads = 4;
    const auto h4 = gm::run(sc).max_load;
    EXPECT_EQ(h1, h4) << "engine=" << gm::to_string(engine);
  }
}

// --------------------------------------------------------------- validation

TEST(Scenario, RejectsUnrunnableSpecsUpFront) {
  auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                           gm::Engine::kScalar);
  sc.trials = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.num_servers = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.num_choices = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kUniform, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kTorusNd, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.torus_dims = 5;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.quantiles = {0.5, 1.5};
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
}

TEST(Scenario, PartitionedSchemeRunsOnRingLikeSpaces) {
  for (const auto space : {gm::SpaceKind::kRing, gm::SpaceKind::kChordNet}) {
    auto sc = small_scenario(space, gc::TieBreak::kFirstChoice,
                             gm::Engine::kScalar);
    sc.scheme = gc::ChoiceScheme::kPartitioned;
    const auto scalar = gm::run(sc);
    EXPECT_EQ(scalar.max_load.total(), 6u);
    sc.engine = gm::Engine::kBatched;
    EXPECT_EQ(gm::run(sc).max_load, scalar.max_load);
  }
}

// ------------------------------------------------------------ kAuto + echo

TEST(Scenario, AutoResolutionRules) {
  gm::Scenario sc;
  sc.engine = gm::Engine::kAuto;
  sc.threads = 8;  // pin so the rule does not depend on this host

  sc.space = gm::SpaceKind::kRing;
  sc.num_servers = 256;  // m = n = 256 < 4096
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kScalar);
  sc.num_balls = 4095;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kScalar);
  sc.num_balls = 4096;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
  // A huge single trial stays batched at any thread count: trials, not
  // balls, are what runs in parallel.
  sc.num_balls = 1ull << 23;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    sc.threads = threads;
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
  }
  sc.space = gm::SpaceKind::kTorus;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);

  // Uniform has no owner lookup to batch; the non-bulk spaces have no
  // kernels — scalar regardless of size.
  for (const auto space : {gm::SpaceKind::kUniform, gm::SpaceKind::kTorusNd,
                           gm::SpaceKind::kWeighted,
                           gm::SpaceKind::kChordNet}) {
    sc.space = space;
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kScalar);
  }

  // Explicit engines pass through untouched.
  sc.engine = gm::Engine::kBatched;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
}

TEST(Scenario, ReportEchoesResolvedSpec) {
  auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                           gm::Engine::kAuto);
  sc.num_balls = 0;  // m = n
  sc.threads = 2;
  const auto r = gm::run(sc);
  EXPECT_NE(r.spec.engine, gm::Engine::kAuto);
  EXPECT_EQ(r.spec.engine, gm::resolve_engine(sc));
  EXPECT_EQ(r.spec.num_balls, sc.num_servers);
  EXPECT_EQ(r.spec.threads, 2u);
  // Rerunning the resolved spec reproduces the run bit-for-bit.
  EXPECT_EQ(gm::run(r.spec).max_load, r.max_load);
}

TEST(Scenario, QuantilesTrackTheHistogram) {
  auto sc = small_scenario(gm::SpaceKind::kUniform, gc::TieBreak::kRandom,
                           gm::Engine::kScalar);
  sc.trials = 50;
  const auto r = gm::run(sc);
  ASSERT_EQ(r.quantile_values.size(), sc.quantiles.size());
  // Exact by construction: every per-trial outcome is in the histogram.
  for (std::size_t i = 0; i < sc.quantiles.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        r.quantile_values[i],
        static_cast<double>(r.max_load.quantile(sc.quantiles[i])));
  }
  EXPECT_LE(r.quantile_values[0], r.quantile_values[1]);
  EXPECT_LE(r.quantile_values[1], r.quantile_values[2]);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.balls_per_sec, 0.0);
  EXPECT_LE(r.trial_seconds_min, r.trial_seconds_mean);
  EXPECT_LE(r.trial_seconds_mean, r.trial_seconds_max);
}

TEST(Scenario, ThroughputDividesByWallClock) {
  auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                           gm::Engine::kBatched);
  sc.trials = 16;
  sc.threads = 4;
  const auto r = gm::run(sc);
  ASSERT_GT(r.wall_seconds, 0.0);
  // The run's wall clock spans every trial it timed.
  EXPECT_GE(r.wall_seconds, r.trial_seconds_max);
  EXPECT_DOUBLE_EQ(r.balls_per_sec,
                   static_cast<double>(sc.trials * sc.num_balls) /
                       r.wall_seconds);

  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  const auto col = std::find(header.begin(), header.end(), "wall_seconds");
  ASSERT_NE(col, header.end());
  EXPECT_NEAR(std::stod(row[static_cast<std::size_t>(col - header.begin())]),
              r.wall_seconds, 1e-3 * r.wall_seconds);
  EXPECT_NE(gm::scenario_json(r).find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(gm::render_run_summary(r).find("wall "), std::string::npos);
}

TEST(Scenario, CpuSecondsIsProcessCpuOverTheRun) {
  auto sc = small_scenario(gm::SpaceKind::kTorus, gc::TieBreak::kLowestIndex,
                           gm::Engine::kBatched);
  sc.trials = 16;
  sc.threads = 4;
  const auto r = gm::run(sc);
  // CPU time cannot outrun every worker busy for the whole wall span (5%
  // slack for clock granularity).
  EXPECT_GT(r.cpu_seconds, 0.0);
  EXPECT_LE(r.cpu_seconds, r.wall_seconds * static_cast<double>(sc.threads) *
                               1.05);

  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  const auto wall = std::find(header.begin(), header.end(), "wall_seconds");
  ASSERT_NE(wall, header.end());
  ASSERT_NE(wall + 1, header.end());
  EXPECT_EQ(*(wall + 1), "cpu_seconds");
  const auto cpu_col = static_cast<std::size_t>(wall + 1 - header.begin());
  EXPECT_NEAR(std::stod(row[cpu_col]), r.cpu_seconds, 1e-3 * r.cpu_seconds);
  EXPECT_NE(gm::scenario_json(r).find("\"cpu_seconds\""), std::string::npos);
  EXPECT_NE(gm::render_run_summary(r).find(", cpu "), std::string::npos);
}

// ------------------------------------------------------- args + reporting

TEST(Scenario, FromArgsParsesEveryFlagOverDefaults) {
  const std::vector<const char*> argv = {
      "prog",          "--space=weighted", "--engine=batched",
      "--n=512",       "--m=1024",         "--d=3",
      "--tie=smaller", "--trials=9",       "--seed=77",
      "--threads=2",   "--alpha=1.25"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto sc = gm::scenario_from_args(args);
  EXPECT_TRUE(args.unused().empty());
  EXPECT_EQ(sc.space, gm::SpaceKind::kWeighted);
  EXPECT_EQ(sc.engine, gm::Engine::kBatched);
  EXPECT_EQ(sc.num_servers, 512u);
  EXPECT_EQ(sc.num_balls, 1024u);
  EXPECT_EQ(sc.num_choices, 3);
  EXPECT_EQ(sc.tie, gc::TieBreak::kSmallerRegion);
  EXPECT_EQ(sc.trials, 9u);
  EXPECT_EQ(sc.seed, 77u);
  EXPECT_EQ(sc.threads, 2u);
  EXPECT_DOUBLE_EQ(sc.zipf_alpha, 1.25);
}

TEST(Scenario, FromArgsKeepsDefaultsAndTakesListFront) {
  const std::vector<const char*> argv = {"prog", "--n=256,4096,65536"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  gm::Scenario defaults;
  defaults.trials = 33;
  defaults.tie = gc::TieBreak::kFirstChoice;
  const auto sc = gm::scenario_from_args(args, defaults);
  EXPECT_EQ(sc.num_servers, 256u);  // sweep binaries read the full list
  EXPECT_EQ(sc.trials, 33u);
  EXPECT_EQ(sc.tie, gc::TieBreak::kFirstChoice);
  EXPECT_EQ(sc.engine, gm::Engine::kAuto);
}

// No engine answers to --engine=sharded, --workers or --shards: the first
// throws, the other two are left unconsumed, so every binary's unused()
// check rejects them.
TEST(Scenario, FromArgsRejectsTheRemovedEngineFlags) {
  {
    const std::vector<const char*> argv = {"prog", "--engine=sharded"};
    const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW((void)gm::scenario_from_args(args), std::invalid_argument);
  }
  for (const char* flag : {"--workers=2", "--shards=4"}) {
    const std::vector<const char*> argv = {"prog", "--model=wire", flag};
    const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
    (void)gm::scenario_from_args(args);
    EXPECT_EQ(args.unused().size(), 1u) << flag;
  }
}

TEST(Scenario, StringRoundTrips) {
  for (const auto space : kAllSpaces) {
    EXPECT_EQ(gm::space_kind_from_string(std::string(gm::to_string(space))),
              space);
  }
  for (const auto engine :
       {gm::Engine::kScalar, gm::Engine::kBatched, gm::Engine::kAuto}) {
    EXPECT_EQ(gm::engine_from_string(std::string(gm::to_string(engine))),
              engine);
  }
  EXPECT_THROW((void)gm::space_kind_from_string("plane"),
               std::invalid_argument);
  EXPECT_THROW((void)gm::engine_from_string("warp"), std::invalid_argument);
}

TEST(Scenario, CsvAndJsonEchoTheResolvedSpec) {
  const auto r = gm::run(small_scenario(gm::SpaceKind::kRing,
                                        gc::TieBreak::kRandom,
                                        gm::Engine::kScalar));
  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(row[0], "ring");
  EXPECT_EQ(row[1], "scalar");
  EXPECT_EQ(row[2], "96");

  const std::string json = gm::scenario_json(r);
  EXPECT_NE(json.find("\"space\": \"ring\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"scalar\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_max_load\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  const std::string summary = gm::render_run_summary(r);
  EXPECT_NE(summary.find("space=ring"), std::string::npos);
  EXPECT_NE(summary.find("engine=scalar"), std::string::npos);
  EXPECT_NE(summary.find("distribution of max load"), std::string::npos);
}

// --------------------------------------------------------------- wire model

namespace {

gm::Scenario wire_scenario() {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 256;
  sc.window = 4;
  sc.lookups = 64;
  sc.trials = 4;
  sc.seed = 0x5eed;
  return sc;
}

/// FNV-1a fold of the bit patterns of every WireMetrics field and the
/// max-load histogram's (value, count) pairs.
std::uint64_t wire_fingerprint(const gm::RunReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
  };
  const auto fold_double = [&](double x) {
    fold(std::bit_cast<std::uint64_t>(x));
  };
  const gm::WireMetrics& w = r.wire;
  fold(w.present ? 1 : 0);
  fold_double(w.mean_lookup_hops);
  fold_double(w.lookup_hops_p50);
  fold_double(w.lookup_hops_p90);
  fold_double(w.lookup_hops_p99);
  fold_double(w.insert_latency_p50);
  fold_double(w.insert_latency_p90);
  fold_double(w.insert_latency_p99);
  fold_double(w.lookup_latency_p50);
  fold_double(w.lookup_latency_p90);
  fold_double(w.lookup_latency_p99);
  fold_double(w.links_per_insert);
  fold_double(w.probe_hops_per_insert);
  fold_double(w.stale_fraction);
  fold_double(w.mean_events);
  fold_double(w.mean_end_time);
  fold(w.datagrams);
  fold(w.malformed);
  fold(w.retransmits);
  fold(w.data_retransmits);
  fold(w.census_retries);
  for (const auto& [value, count] : r.max_load.items()) {
    fold(value);
    fold(count);
  }
  return h;
}

}  // namespace

// Every WireMetrics field and the max-load histogram of a multi-trial
// kSim run, pinned bit for bit: the per-trial aggregation (sum order,
// division by the trial count) must not drift.
TEST(ScenarioWire, GoldenWireMetricsFingerprint) {
  auto sc = wire_scenario();
  sc.latency = geochoice::net::LatencyModel::uniform(0.5, 1.5);
  sc.threads = 4;
  const auto r = gm::run(sc);
  EXPECT_EQ(wire_fingerprint(r), 0x46c91e3c94ccede3ULL);
}

// A wire spec's CSV appends the net knobs and WireMetrics columns to the
// structural schema, and every row still matches its header.
TEST(ScenarioWire, CsvCarriesTheWireColumns) {
  const auto r = gm::run(wire_scenario());
  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  ASSERT_EQ(header.size(), row.size());
  const auto column = [&](const std::string& name) {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << name;
    return it == header.end() ? std::string()
                              : row[static_cast<std::size_t>(
                                    it - header.begin())];
  };
  EXPECT_EQ(column("space"), "chord");
  EXPECT_EQ(column("transport"), "sim");
  EXPECT_EQ(column("latency"), "constant");
  EXPECT_EQ(column("window"), "4");
  EXPECT_EQ(column("lookups"), "64");
  EXPECT_EQ(std::stod(column("mean_max_load")), r.max_load.mean());
  EXPECT_NEAR(std::stod(column("stale_fraction")), r.wire.stale_fraction,
              1e-5);
  EXPECT_NEAR(std::stod(column("links_per_insert")), r.wire.links_per_insert,
              1e-4);
  for (const char* name :
       {"lat_a", "lat_b", "mean_lookup_hops", "lookup_hops_p50",
        "lookup_hops_p90", "lookup_hops_p99", "insert_latency_p50",
        "insert_latency_p90", "insert_latency_p99", "lookup_latency_p50",
        "lookup_latency_p90", "lookup_latency_p99"}) {
    EXPECT_FALSE(column(name).empty()) << name;
  }
  // Structural specs keep the narrower schema.
  const auto structural = gm::scenario_csv_header(gm::Scenario{});
  EXPECT_EQ(structural.size() + 18, header.size());
  EXPECT_EQ(std::find(structural.begin(), structural.end(), "window"),
            structural.end());
}

// RunReport::spec reproduces net runs just like structural ones: rerunning
// the resolved spec is the same experiment.
TEST(ScenarioWire, SpecReproducesTheRun) {
  const auto first = gm::run(wire_scenario());
  const auto again = gm::run(first.spec);
  EXPECT_EQ(first.max_load, again.max_load);
  EXPECT_DOUBLE_EQ(first.wire.stale_fraction, again.wire.stale_fraction);
  EXPECT_DOUBLE_EQ(first.wire.mean_end_time, again.wire.mean_end_time);
  EXPECT_NE(first.spec.engine, gm::Engine::kAuto);  // spec stays concrete
}

// Per-trial timing comes from each trial's own simulate call, as on the
// structural path: the range is real and the parts add up to the total.
TEST(ScenarioWire, SimTrialTimesArePerTrial) {
  auto sc = wire_scenario();
  sc.num_servers = 256;
  sc.num_balls = 4096;
  sc.trials = 3;
  sc.threads = 1;
  const auto r = gm::run(sc);
  EXPECT_GT(r.trial_seconds_min, 0.0);
  EXPECT_LT(r.trial_seconds_min, r.trial_seconds_max);
  EXPECT_LE(r.trial_seconds_min, r.trial_seconds_mean);
  EXPECT_LE(r.trial_seconds_mean, r.trial_seconds_max);
  EXPECT_DOUBLE_EQ(r.total_seconds, r.trial_seconds_mean * 3.0);
  EXPECT_LE(r.total_seconds, r.wall_seconds);
}

TEST(ScenarioWire, ValidatesWireSpecs) {
  {
    auto sc = wire_scenario();
    sc.space = gm::SpaceKind::kRing;  // the protocol routes on Chord
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.scheme = gc::ChoiceScheme::kPartitioned;
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.tie = gc::TieBreak::kSmallerRegion;  // needs arc sizes on the wire
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.window = 0;
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
}

TEST(ScenarioWire, FromArgsParsesWireFlags) {
  const std::vector<const char*> argv = {
      "prog",           "--space=chord",       "--model=wire",
      "--transport=udp", "--latency=lognormal", "--lat-a=0.25",
      "--lat-b=0.75",   "--window=16",         "--lookups=512"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto sc = gm::scenario_from_args(args);
  EXPECT_EQ(sc.model, gm::ExecModel::kWire);
  EXPECT_EQ(sc.transport, gm::WireTransport::kUdp);
  EXPECT_EQ(sc.latency.kind, geochoice::net::LatencyKind::kLognormal);
  EXPECT_DOUBLE_EQ(sc.latency.a, 0.25);
  EXPECT_DOUBLE_EQ(sc.latency.b, 0.75);
  EXPECT_EQ(sc.window, 16u);
  EXPECT_EQ(sc.lookups, 512u);
  EXPECT_TRUE(args.unused().empty());

  for (const auto m : {gm::ExecModel::kStructural, gm::ExecModel::kWire}) {
    EXPECT_EQ(gm::exec_model_from_string(std::string(gm::to_string(m))), m);
  }
  for (const auto t : {gm::WireTransport::kSim, gm::WireTransport::kUdp}) {
    EXPECT_EQ(gm::wire_transport_from_string(std::string(gm::to_string(t))),
              t);
  }
  EXPECT_THROW((void)gm::exec_model_from_string("psychic"),
               std::invalid_argument);
  EXPECT_THROW((void)gm::wire_transport_from_string("tcp"),
               std::invalid_argument);
}

// The kUdp transport under a serialized window and a deterministic tie is
// the same allocation the simulator computes: placements depend only on
// the shared candidate stream and the serial load evolution, so the
// max-load histogram bit-matches the zero-latency kSim run.
TEST(ScenarioWire, UdpMaxLoadMatchesTheSimulatorOracle) {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 3;
  sc.num_balls = 48;
  sc.window = 1;
  sc.tie = gc::TieBreak::kFirstChoice;
  sc.lookups = 8;
  sc.trials = 2;
  sc.seed = 0x636c7573746572;

  auto udp = sc;
  udp.transport = gm::WireTransport::kUdp;
  gm::RunReport real;
  try {
    real = gm::run(udp);
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }

  auto simulated = sc;
  simulated.latency = geochoice::net::LatencyModel::zero();
  const auto oracle = gm::run(simulated);

  EXPECT_EQ(real.max_load, oracle.max_load);
  EXPECT_EQ(real.wire.malformed, 0u);
  EXPECT_GT(real.wire.datagrams, 0u);
}
