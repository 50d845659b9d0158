// Differential tests for the linear-time ring builds: the bucket sort of
// unit-interval values (and ChordRing's successor over its output), and the
// swept finger / insertion-placed hop-row build, each against the
// straightforward version kept in support/chord_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dht/dht.hpp"
#include "geometry/ring_arithmetic.hpp"
#include "rng/rng.hpp"
#include "spaces/ring_space.hpp"
#include "support/chord_reference.hpp"

namespace gd = geochoice::dht;
namespace gg = geochoice::geometry;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;
namespace gt = geochoice::testing;

namespace {

struct RingCase {
  std::string name;
  std::vector<double> ids;  // unsorted, as a caller would pass them
};

std::vector<double> uniform_ids(std::size_t n, std::uint64_t seed) {
  gr::Xoshiro256StarStar gen(seed);
  std::vector<double> ids(n);
  for (double& id : ids) id = gr::uniform01(gen);
  return ids;
}

/// n ids inside the arc [base, base + width), wrapping past 1.0.
std::vector<double> clustered_ids(std::size_t n, double base, double width,
                                  std::uint64_t seed) {
  gr::Xoshiro256StarStar gen(seed);
  std::vector<double> ids(n);
  for (double& id : ids) id = gg::wrap01(base + width * gr::uniform01(gen));
  return ids;
}

/// The sizes the kernels' edges live at: tiny rings, one either side of a
/// power of two (the bucket count jumps there), and random rings.
std::vector<RingCase> ring_cases() {
  std::vector<RingCase> cases;
  std::uint64_t seed = 1;
  std::vector<std::size_t> sizes = {1, 2, 3, 63, 64, 65};
  for (const int k : {7, 10, 12}) {
    sizes.push_back((std::size_t{1} << k) - 1);
    sizes.push_back((std::size_t{1} << k) + 1);
  }
  for (const std::size_t n : sizes) {
    cases.push_back({"uniform n=" + std::to_string(n), uniform_ids(n, seed++)});
  }
  const double arc = std::ldexp(1.0, -20);
  // Every id in one bucket: the std::sort fallback path.
  cases.push_back({"clustered n=3000", clustered_ids(3000, 0.5, arc, 101)});
  // The same cluster straddling 0, so every finger sweep wraps inside it.
  cases.push_back(
      {"clustered-wrap n=1000", clustered_ids(1000, 1.0 - arc / 2, arc, 102)});
  // Uniform background plus one crowded bucket.
  auto mixed = uniform_ids(500, 103);
  const auto crowd = clustered_ids(200, 0.25, arc, 104);
  mixed.insert(mixed.end(), crowd.begin(), crowd.end());
  cases.push_back({"mixed n=700", mixed});
  // Two ids closer than an ulp of 1.0: the gap wrapping back from the
  // upper one rounds to 1.0, which wrap01 maps to 0.0.
  cases.push_back(
      {"ulp-close", {std::numeric_limits<double>::denorm_min(), 0.0}});
  // Ties and presorted input.
  cases.push_back({"duplicates", {0.5, 0.25, 0.5, 0.0, 0.25, 0.75, 0.0}});
  auto sorted = uniform_ids(300, 105);
  std::sort(sorted.begin(), sorted.end());
  cases.push_back({"presorted n=300", sorted});
  cases.push_back({"reversed n=300",
                   std::vector<double>(sorted.rbegin(), sorted.rend())});
  return cases;
}

bool all_distinct(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) == v.end();
}

}  // namespace

TEST(RingBuild, SortUnitIntervalMatchesStdSort) {
  std::vector<double> empty;
  gg::sort_unit_interval(empty);
  EXPECT_TRUE(empty.empty());
  for (const RingCase& c : ring_cases()) {
    SCOPED_TRACE(c.name);
    std::vector<double> got = c.ids;
    gg::sort_unit_interval(got);
    std::vector<double> want = c.ids;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want);
  }
}

TEST(RingBuild, RingSpaceSortsLikeStdSort) {
  for (const RingCase& c : ring_cases()) {
    SCOPED_TRACE(c.name);
    const gs::RingSpace space(c.ids);
    std::vector<double> want = c.ids;
    std::sort(want.begin(), want.end());
    ASSERT_TRUE(std::equal(space.positions().begin(), space.positions().end(),
                           want.begin(), want.end()));
  }
}

TEST(RingBuild, SuccessorMatchesLowerBound) {
  const double below1 = std::nextafter(1.0, 0.0);
  for (const RingCase& c : ring_cases()) {
    SCOPED_TRACE(c.name);
    const gd::ChordRing ring(c.ids);
    const auto ids = ring.node_ids();
    std::vector<double> keys = {0.0,  -0.0, below1, 1.0, 1.5, -0.25,
                                std::numeric_limits<double>::min()};
    for (const double id : ids) {
      keys.push_back(id);
      keys.push_back(std::nextafter(id, 0.0));
      keys.push_back(std::nextafter(id, 1.0));
    }
    gr::Xoshiro256StarStar gen(c.ids.size());
    for (int q = 0; q < 200; ++q) keys.push_back(gr::uniform01(gen));
    for (const double key : keys) {
      ASSERT_EQ(ring.successor(key), gt::reference_successor(ids, key))
          << "key " << key;
    }
  }
}

TEST(RingBuild, FingersAndHopRowsMatchReference) {
  for (const RingCase& c : ring_cases()) {
    // Distinct ids make candidate progress distinct, which fixes the
    // reference's std::sort order; the duplicates case is covered by the
    // sort and successor tests above.
    if (!all_distinct(c.ids)) continue;
    for (const int fingers : {0, 1, 3, 40}) {
      SCOPED_TRACE(c.name + " fingers=" + std::to_string(fingers));
      gd::ChordRing ring(c.ids);
      ring.build_fingers(fingers);
      const gt::ChordTables want =
          gt::reference_chord_tables(ring.node_ids(), ring.fingers_per_node());
      const auto n = static_cast<std::uint32_t>(ring.node_count());
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto stride = static_cast<std::size_t>(want.hop_stride);
        const auto prog = ring.hop_progress_row(i);
        const auto node = ring.hop_node_row(i);
        ASSERT_EQ(prog.size(), stride);
        for (std::size_t j = 0; j < stride; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(prog[j]),
                    std::bit_cast<std::uint64_t>(
                        want.hop_progress[i * stride + j]))
              << "node " << i << " slot " << j;
          ASSERT_EQ(node[j], want.hop_node[i * stride + j])
              << "node " << i << " slot " << j;
        }
      }
    }
  }
}

TEST(RingBuild, DuplicateIdsStillRouteToTheOwner) {
  gd::ChordRing ring({0.5, 0.25, 0.5, 0.0, 0.25, 0.75, 0.0});
  ring.build_fingers();
  gr::Xoshiro256StarStar gen(7);
  for (int q = 0; q < 500; ++q) {
    const double key = gr::uniform01(gen);
    for (std::uint32_t from = 0; from < ring.node_count(); ++from) {
      // lookup() gives up after n hops; reaching the owner stops sooner.
      ASSERT_LT(ring.lookup(from, key).hops, ring.node_count()) << key;
    }
  }
}
