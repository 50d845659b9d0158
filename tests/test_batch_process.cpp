// Tests for the batched d-choice engine: exact equivalence against the
// scalar oracle under deterministic tie-breaks (shared location stream),
// batched primitive correctness (ring_owner_batch, nearest_batch), and
// statistical agreement for the randomized tie-break. Thread-count
// invariance of batched trials is pinned through sim::run
// (ScenarioMatrix.ThreadCountInvariance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "geometry/ring_arithmetic.hpp"
#include "geometry/spatial_grid.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"

namespace gc = geochoice::core;
namespace gg = geochoice::geometry;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;

namespace {

gc::ProcessOptions opts(std::uint64_t m, int d, gc::TieBreak tie) {
  gc::ProcessOptions o;
  o.num_balls = m;
  o.num_choices = d;
  o.tie = tie;
  return o;
}

/// Scalar and batched runs from identical engine states must produce
/// bit-identical loads for deterministic tie-breaks.
template <typename Space>
void expect_exact_equivalence(const Space& space, const gc::ProcessOptions& o,
                              std::uint64_t seed, std::size_t block_size) {
  gr::DefaultEngine scalar_gen(seed);
  gr::DefaultEngine batch_gen(seed);
  const auto scalar = gc::run_process(space, o, scalar_gen);
  gc::BatchOptions b;
  b.block_size = block_size;
  const auto batched = gc::run_batch_process(space, o, batch_gen, b);
  EXPECT_EQ(scalar.loads, batched.loads);
  EXPECT_EQ(scalar.max_load, batched.max_load);
  EXPECT_EQ(scalar.balls, batched.balls);
}

}  // namespace

TEST(BatchProcess, RejectsBadArguments) {
  gr::DefaultEngine gen(1);
  const gs::UniformSpace space(8);
  EXPECT_THROW((void)gc::run_batch_process(
                   space, opts(10, 0, gc::TieBreak::kFirstChoice), gen),
               std::invalid_argument);
  gc::ProcessOptions o = opts(10, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gc::run_batch_process(space, o, gen),
               std::invalid_argument);
}

TEST(BatchProcess, ExactEquivalenceRing) {
  gr::DefaultEngine setup(7);
  const auto space = gs::RingSpace::random(512, setup);
  for (const auto tie : {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
                         gc::TieBreak::kSmallerRegion,
                         gc::TieBreak::kLargerRegion}) {
    for (const int d : {1, 2, 4}) {
      expect_exact_equivalence(space, opts(2048, d, tie), 99, 256);
    }
  }
}

TEST(BatchProcess, ExactEquivalenceRingPartitioned) {
  gr::DefaultEngine setup(8);
  const auto space = gs::RingSpace::random(256, setup);
  gc::ProcessOptions o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  expect_exact_equivalence(space, o, 55, 128);
}

TEST(BatchProcess, ExactEquivalenceTorus) {
  gr::DefaultEngine setup(9);
  const auto space = gs::TorusSpace::random(256, setup);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(1024, 2, tie), 1234, 200);
  }
}

TEST(BatchProcess, ExactEquivalenceUniform) {
  const gs::UniformSpace space(333);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(999, 3, tie), 4321, 100);
  }
}

TEST(BatchProcess, BlockSizeDoesNotChangeDeterministicResults) {
  gr::DefaultEngine setup(10);
  const auto space = gs::RingSpace::random(128, setup);
  const auto o = opts(1000, 2, gc::TieBreak::kFirstChoice);
  std::vector<std::uint32_t> reference;
  for (const std::size_t block : {1u, 7u, 64u, 1000u, 4096u}) {
    gr::DefaultEngine gen(42);
    gc::BatchOptions b;
    b.block_size = block;
    const auto r = gc::run_batch_process(space, o, gen, b);
    if (reference.empty()) {
      reference = r.loads;
    } else {
      EXPECT_EQ(reference, r.loads) << "block_size=" << block;
    }
  }
}

TEST(BatchProcess, ConservesBallsAndRecordsHeights) {
  gr::DefaultEngine setup(11);
  const auto space = gs::RingSpace::random(64, setup);
  gc::ProcessOptions o = opts(500, 2, gc::TieBreak::kRandom);
  o.record_heights = true;
  gr::DefaultEngine gen(3);
  const auto r = gc::run_batch_process(space, o, gen);
  const auto total =
      std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0});
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(r.heights.total(), 500u);
  EXPECT_EQ(r.heights.max_value(), r.max_load);
}

TEST(BatchProcess, RandomTieBreakStatisticallyMatchesScalar) {
  // kRandom draws tie randomness in a different stream order than the
  // scalar loop, so exact equality is not expected; the max-load
  // distribution over trials must agree closely though.
  gr::DefaultEngine setup(12);
  const auto space = gs::UniformSpace(256);
  const auto o = opts(256, 2, gc::TieBreak::kRandom);
  const std::uint64_t trials = 300;
  double scalar_mean = 0.0;
  double batch_mean = 0.0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto g1 = gr::make_trial_engine(777, t);
    auto g2 = gr::make_trial_engine(777, t);
    scalar_mean += gc::run_process(space, o, g1).max_load;
    batch_mean += gc::run_batch_process(space, o, g2).max_load;
  }
  scalar_mean /= static_cast<double>(trials);
  batch_mean /= static_cast<double>(trials);
  // Max loads here live in a tight band (~2..4); means beyond 0.25 apart
  // would signal a real distributional bug, not noise.
  EXPECT_NEAR(scalar_mean, batch_mean, 0.25);
}

TEST(BatchProcess, RunBatchTrialsMatchesScalarTrialsDeterministicTie) {
  // With a deterministic tie-break each batched trial must reproduce the
  // scalar trial on the same trial engine exactly. One scratch serves
  // every trial, so recycled buffers are shown not to leak into results.
  gr::DefaultEngine setup(14);
  const auto space = gs::RingSpace::random(64, setup);
  const auto o = opts(256, 2, gc::TieBreak::kLowestIndex);
  gc::BatchScratch<double> scratch;
  for (std::uint64_t t = 0; t < 16; ++t) {
    auto batch_gen = gr::make_trial_engine(31337, t);
    auto scalar_gen = gr::make_trial_engine(31337, t);
    const auto batched =
        gc::run_batch_process(space, o, batch_gen, {}, &scratch);
    const auto scalar = gc::run_process(space, o, scalar_gen);
    EXPECT_EQ(scalar.loads, batched.loads) << "trial " << t;
  }
}

TEST(RingOwnerBatch, MatchesScalarOwner) {
  gr::DefaultEngine gen(15);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 256u, 1000u}) {
    const auto space = gs::RingSpace::random(n, gen);
    std::vector<double> xs(513);
    for (auto& x : xs) x = gr::uniform01(gen);
    // Include the exact server positions and the wrap region as edge cases.
    xs.push_back(space.positions().front());
    xs.push_back(space.positions().back());
    xs.push_back(0.0);
    std::vector<std::uint32_t> got(xs.size());
    gg::ring_owner_batch(space.positions(), xs, got);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(got[i], space.owner(xs[i])) << "n=" << n << " x=" << xs[i];
    }
  }
}

namespace {

enum class SiteLayout { kUniform, kLattice, kDuplicates, kClustered, kSeam };

const char* layout_name(SiteLayout l) {
  switch (l) {
    case SiteLayout::kUniform: return "uniform";
    case SiteLayout::kLattice: return "lattice";
    case SiteLayout::kDuplicates: return "duplicates";
    case SiteLayout::kClustered: return "clustered";
    case SiteLayout::kSeam: return "seam";
  }
  return "?";
}

std::size_t lattice_side(std::size_t n) {
  std::size_t g = 1;
  while (g * g < n) ++g;
  return g;
}

std::vector<gg::Vec2> make_sites(SiteLayout layout, std::size_t n,
                                 gr::DefaultEngine& gen) {
  std::vector<gg::Vec2> sites(n);
  const std::size_t g = lattice_side(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = gr::uniform01(gen);
    const double v = gr::uniform01(gen);
    switch (layout) {
      case SiteLayout::kUniform:
        sites[i] = {u, v};
        break;
      case SiteLayout::kLattice:
        // Exact ties: every lattice cell center and edge midpoint is
        // equidistant from two or four sites.
        sites[i] = {static_cast<double>(i % g) / static_cast<double>(g),
                    static_cast<double>(i / g) / static_cast<double>(g)};
        break;
      case SiteLayout::kDuplicates:
        // Each position held by up to three sites; the lowest index wins.
        sites[i] = i < (n + 2) / 3 ? gg::Vec2{u, v} : sites[i % ((n + 2) / 3)];
        break;
      case SiteLayout::kClustered: {
        // Four tight clusters, one across the corner seam: most buckets
        // are empty, so most queries need rings >= 2.
        static constexpr gg::Vec2 kCenters[] = {
            {0.37, 0.81}, {0.995, 0.004}, {0.62, 0.12}, {0.2, 0.45}};
        const gg::Vec2 c = kCenters[i % 4];
        sites[i] = gg::wrap01(gg::Vec2{c.x + 0.02 * (u - 0.5),
                                       c.y + 0.02 * (v - 0.5)});
        break;
      }
      case SiteLayout::kSeam: {
        // Within 2e-3 of the x seam (even i) or the y seam (odd i), with
        // the extreme coordinates 0.0 and the last double below 1.
        const double hug = i % 3 == 0   ? 0.0
                           : i % 3 == 1 ? std::nextafter(1.0, 0.0)
                                        : gg::wrap01(4e-3 * (u - 0.5));
        sites[i] = i % 2 == 0 ? gg::Vec2{hug, v} : gg::Vec2{v, hug};
        break;
      }
    }
  }
  return sites;
}

/// Random queries plus the edge cases: both sides of every bucket edge on
/// each axis, 0.0 and the wrap, sites themselves, and (lattice layouts)
/// the tie points between lattice sites.
std::vector<gg::Vec2> make_queries(const gg::SpatialGrid& grid,
                                   SiteLayout layout, std::size_t random,
                                   gr::DefaultEngine& gen,
                                   std::uint32_t edge_stride = 1) {
  std::vector<gg::Vec2> qs;
  for (std::size_t i = 0; i < random; ++i) {
    qs.push_back({gr::uniform01(gen), gr::uniform01(gen)});
  }
  const std::uint32_t k = grid.buckets_per_axis();
  for (std::uint32_t j = 0; j < k; j += edge_stride) {
    const double edge = static_cast<double>(j) / static_cast<double>(k);
    for (const double e : {edge, std::nextafter(edge, 0.0),
                           std::nextafter(edge, 1.0)}) {
      if (e < 0.0 || e >= 1.0) continue;
      qs.push_back({e, gr::uniform01(gen)});
      qs.push_back({gr::uniform01(gen), e});
    }
  }
  const double top = std::nextafter(1.0, 0.0);
  for (const gg::Vec2 q : {gg::Vec2{0.0, 0.0}, gg::Vec2{top, top},
                           gg::Vec2{0.0, top}, gg::Vec2{top, 0.0},
                           gg::Vec2{0.0, 0.5}, gg::Vec2{0.5, top}}) {
    qs.push_back(q);
  }
  const auto sites = grid.sites();
  const std::size_t stride = std::max<std::size_t>(1, sites.size() / 256);
  for (std::size_t i = 0; i < sites.size(); i += stride) qs.push_back(sites[i]);
  if (layout == SiteLayout::kLattice) {
    const std::size_t g = lattice_side(sites.size());
    const std::size_t step = std::max<std::size_t>(1, g / 16);
    for (std::size_t a = 0; a < g; a += step) {
      for (std::size_t b = 0; b < g; b += step) {
        const double side = static_cast<double>(g);
        const double x = (static_cast<double>(a) + 0.5) / side;
        const double y = (static_cast<double>(b) + 0.5) / side;
        const double xe = static_cast<double>(a) / side;
        qs.push_back({x, y});
        qs.push_back({xe, y});
        qs.push_back({x, xe});
      }
    }
  }
  return qs;
}

/// Resolves `qs` in 2048-query blocks (the engine's block shape) and
/// counts answers that differ from nearest(), and, for n <= 1000, answers
/// whose distance differs from the brute-force nearest distance.
std::size_t batch_mismatches(const gg::SpatialGrid& grid,
                             const std::vector<gg::Vec2>& qs,
                             const std::string& label) {
  std::vector<std::uint32_t> got(qs.size());
  constexpr std::size_t kBlock = 2048;
  for (std::size_t i = 0; i < qs.size(); i += kBlock) {
    const std::size_t len = std::min(kBlock, qs.size() - i);
    grid.nearest_batch(std::span(qs).subspan(i, len),
                       std::span(got).subspan(i, len));
  }
  const auto sites = grid.sites();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::uint32_t want = grid.nearest(qs[i]);
    bool ok = got[i] == want;
    if (sites.size() <= 1000) {
      const std::uint32_t brute = gg::brute_force_nearest(sites, qs[i]);
      ok = ok && gg::torus_dist2(sites[got[i]], qs[i]) ==
                     gg::torus_dist2(sites[brute], qs[i]);
    }
    if (!ok && bad++ == 0) {
      ADD_FAILURE() << label << ": q=(" << qs[i].x << ", " << qs[i].y
                    << ") batch=" << got[i] << " nearest=" << want;
    }
  }
  return bad;
}

}  // namespace

TEST(NearestBatch, MatchesScalarNearest) {
  // Sizes cover one bucket (k = 1), k = 3 and k = 5 where the 3x3 block is
  // most or all of the grid, mid-size grids, and the paper's n = 2^16.
  gr::DefaultEngine gen(16);
  std::size_t total = 0;
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 9u, 24u, 25u, 26u, 500u,
                              4096u, 12000u, 65536u}) {
    for (const SiteLayout layout :
         {SiteLayout::kUniform, SiteLayout::kLattice, SiteLayout::kDuplicates,
          SiteLayout::kClustered, SiteLayout::kSeam}) {
      const auto sites = make_sites(layout, n, gen);
      const gg::SpatialGrid grid(sites);
      // Clustered and seam queries on big grids walk up to ~k/2 rings, so
      // they get a sparser sample.
      const bool far = (layout == SiteLayout::kClustered ||
                        layout == SiteLayout::kSeam) &&
                       n >= 4096;
      const std::size_t random = layout == SiteLayout::kUniform ? 20000
                                 : far                          ? 512
                                                                : 4096;
      const auto qs = make_queries(grid, layout, random, gen,
                                   far ? grid.buckets_per_axis() / 32 : 1);
      total += qs.size();
      EXPECT_EQ(batch_mismatches(grid, qs,
                                 std::string(layout_name(layout)) +
                                     " n=" + std::to_string(n)),
                0u);
    }
  }
  // Explicit bucket counts: even ones (rounded up to odd) and one bucket
  // holding many sites.
  for (const std::uint32_t k : {1u, 4u, 8u}) {
    for (const SiteLayout layout :
         {SiteLayout::kUniform, SiteLayout::kLattice, SiteLayout::kSeam}) {
      const auto sites = make_sites(layout, 500, gen);
      const gg::SpatialGrid grid(sites, k);
      const auto qs = make_queries(grid, layout, 4096, gen);
      total += qs.size();
      EXPECT_EQ(batch_mismatches(grid, qs,
                                 std::string(layout_name(layout)) +
                                     " k=" + std::to_string(k)),
                0u);
    }
  }
  EXPECT_GT(total, 500000u);
}

TEST(NearestBatch, SiteJustPastBlockEdgeStillWins) {
  // k = 5, q in column 1, so the block spans x in [0, 0.6). Site 0 sits at
  // x = 0.6 and files into column 3, outside the block, yet its computed
  // distance is a rounding step below q's computed distance to the block
  // edge. Site 1 mirrors it inside the block at the same distance, so only
  // the stop bound's slack sends the search on to find the lower index.
  const double qx = 0.30625;
  const double d = 0.6 - qx;
  const std::vector<gg::Vec2> sites = {{0.6, 0.5}, {qx - d, 0.5}};
  const gg::SpatialGrid grid(sites, 5);
  ASSERT_EQ(grid.buckets_per_axis(), 5u);
  const std::vector<gg::Vec2> qs = {{qx, 0.5}};
  std::vector<std::uint32_t> got(1);
  grid.nearest_batch(qs, got);
  EXPECT_EQ(grid.nearest(qs[0]), 0u);
  EXPECT_EQ(gg::brute_force_nearest(sites, qs[0]), 0u);
  EXPECT_EQ(got[0], 0u);
}
