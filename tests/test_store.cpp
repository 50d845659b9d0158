// test_store.cpp — HashStore vs a std::unordered_map oracle, plus the
// allocation pin the store's design promises.
//
// The differential suite drives randomized put/get/erase schedules
// through both containers and demands identical answers at every step —
// across incremental resizes (the store starts at the minimum capacity,
// so growth is constantly in flight) and across erase-heavy phases that
// recycle buckets. The steady-state pin asserts the design's headline:
// once warmed, a serving loop of overwrites, hits, misses, and
// erase/reinsert cycles allocates no table.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "store/store.hpp"

namespace {

using namespace geochoice;
namespace gr = geochoice::rng;
namespace gst = geochoice::store;

TEST(HashStore, PutGetEraseRoundtrip) {
  gst::HashStore store;
  EXPECT_TRUE(store.put_u64(7, 42));
  EXPECT_FALSE(store.put_u64(7, 43));  // overwrite is not an insert
  ASSERT_TRUE(store.get_u64(7).has_value());
  EXPECT_EQ(*store.get_u64(7), 43u);
  EXPECT_FALSE(store.get_u64(8).has_value());
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.erase(7));
  EXPECT_FALSE(store.get_u64(7).has_value());
  EXPECT_EQ(store.size(), 0u);
}

TEST(HashStore, DifferentialOracleUnderRandomizedSchedules) {
  for (std::uint64_t schedule = 0; schedule < 3; ++schedule) {
    // Minimum capacity: resizes stay in flight through the whole run.
    gst::HashStore store(gst::HashStore::kNeighborhood);
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    gr::DefaultEngine gen(0x5354524531ULL + schedule);

    constexpr std::uint64_t kKeyUniverse = 512;
    std::uint64_t version = 0;
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t key = gr::uniform_below(gen, kKeyUniverse);
      const std::uint64_t roll = gr::uniform_below(gen, 10);
      if (roll < 5) {  // put
        const std::uint64_t value = gr::mix64(key ^ (++version << 32));
        const bool was_new = store.put_u64(key, value);
        EXPECT_EQ(was_new, !oracle.contains(key));
        oracle[key] = value;
      } else if (roll < 8) {  // get
        const auto got = store.get_u64(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got.has_value()) EXPECT_EQ(*got, it->second);
      } else {  // erase
        EXPECT_EQ(store.erase(key), oracle.erase(key) > 0);
      }
      ASSERT_EQ(store.size(), oracle.size());
    }

    // Full sweep: every oracle key answers with the oracle's value, and
    // nothing else answers at all.
    for (std::uint64_t key = 0; key < kKeyUniverse; ++key) {
      const auto got = store.get_u64(key);
      const auto it = oracle.find(key);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << "key " << key;
      if (got.has_value()) EXPECT_EQ(*got, it->second);
    }
    EXPECT_GE(store.stats().resizes, 1u);  // growth genuinely happened
  }
}

TEST(HashStore, IncrementalResizeKeepsEveryKeyServable) {
  gst::HashStore store(gst::HashStore::kNeighborhood);
  constexpr std::uint64_t kKeys = 10'000;
  bool saw_migration = false;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    store.put_u64(k, gr::mix64(k));
    saw_migration = saw_migration || store.migrating();
    // Reads are correct mid-migration, old table or new.
    const auto got = store.get_u64(k / 2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, gr::mix64(k / 2));
  }
  EXPECT_TRUE(saw_migration);
  EXPECT_GE(store.stats().resizes, 2u);
  EXPECT_EQ(store.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store.get_u64(k).has_value());
  }
  EXPECT_FALSE(store.migrating());  // the gets drained the migration
}

TEST(HashStore, SteadyStateServingLoopAllocatesNothing) {
  gst::HashStore store;
  constexpr std::uint64_t kKeys = 2048;
  for (std::uint64_t k = 0; k < kKeys; ++k) store.put_u64(k, k);
  // Drain any in-flight migration so the loop below starts steady.
  while (store.migrating()) (void)store.get_u64(0);

  const std::uint64_t warmed = store.allocations();
  gr::DefaultEngine gen(0xa110cULL);
  for (int op = 0; op < 50'000; ++op) {
    const std::uint64_t key = gr::uniform_below(gen, kKeys);
    switch (gr::uniform_below(gen, 4)) {
      case 0:
        store.put_u64(key, op);  // overwrite in place
        break;
      case 1:
        (void)store.get_u64(key);  // hit
        break;
      case 2:
        (void)store.get_u64(key + kKeys);  // miss
        break;
      default:
        // Erase/reinsert recycles the bucket.
        store.erase(key);
        store.put_u64(key, op);
        break;
    }
  }
  EXPECT_EQ(store.allocations(), warmed);
  EXPECT_EQ(store.size(), kKeys);
}

TEST(HashStore, StatsAccountForEveryOperation) {
  gst::HashStore store;
  store.put_u64(1, 1);
  store.put_u64(1, 2);
  store.put_u64(2, 1);
  (void)store.get_u64(1);
  (void)store.get_u64(9);
  store.erase(1);
  const auto& s = store.stats();
  EXPECT_EQ(s.puts, 2u);
  EXPECT_EQ(s.overwrites, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.erases, 1u);
}

}  // namespace
