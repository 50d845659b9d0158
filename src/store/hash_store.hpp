// hash_store.hpp — a flat open-addressing u64 -> u64 store with hopscotch
// neighborhoods (the Hydra HashTable/Hopscotch.hpp idiom).
//
// Layout: power-of-two bucket array, each bucket carrying a 32-bit hop
// bitmap of which of the next kNeighborhood buckets hold keys homed here.
// A lookup therefore touches at most popcount(hop) buckets and never
// probes blind; an insert linear-probes for a free bucket and hopscotch-
// displaces it backward into the home neighborhood when it lands too far.
//
// Resizes are incremental: grow() allocates a double-size table and every
// subsequent public operation migrates a bounded batch of old buckets, so
// no put/get ever pays a full rehash. Each value is the wire frame's one
// 8-byte `value` field and sits inline beside its key, moving with it on
// displacement and migration; only growth allocates, so the warmed steady
// state is allocation-free — allocations() exposes the pin.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "rng/splitmix64.hpp"

namespace geochoice::store {

/// Plain always-on counters (obs mirrors them behind the runtime toggle).
struct StoreStats {
  std::uint64_t puts = 0;        // insertions of a new key
  std::uint64_t overwrites = 0;  // puts that replaced an existing value
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t erases = 0;
  std::uint64_t resizes = 0;
  std::uint64_t migrated = 0;  // buckets moved by incremental migration
};

class HashStore {
 public:
  /// Neighborhood size H: a key homed at bucket b lives in [b, b+H).
  static constexpr std::size_t kNeighborhood = 32;
  /// Old-table buckets migrated per public operation during a resize.
  static constexpr std::size_t kMigrateBatch = 128;

  explicit HashStore(std::size_t initial_capacity = 128);

  /// Insert or overwrite. Returns true when `key` was new.
  bool put_u64(std::uint64_t key, std::uint64_t value);

  /// Look up `key`; nullopt on miss. Non-const: a lookup advances the
  /// incremental migration like every other public operation.
  [[nodiscard]] std::optional<std::uint64_t> get_u64(std::uint64_t key);

  /// Remove `key`; returns false when absent.
  bool erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return live_.keys.size(); }
  [[nodiscard]] bool migrating() const { return migrating_; }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }

  /// Tables ever allocated (one per growth step). Tests pin this constant
  /// across a warmed steady-state serving loop.
  [[nodiscard]] std::uint64_t allocations() const {
    return table_allocations_;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  struct Table {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> values;
    std::vector<std::uint32_t> hops;  // neighborhood bitmap, bit i = home+i
    std::vector<std::uint8_t> used;
    std::size_t mask = 0;

    [[nodiscard]] bool empty_table() const { return keys.empty(); }

    [[nodiscard]] std::size_t home_of(std::uint64_t key) const {
      return static_cast<std::size_t>(rng::mix64(key)) & mask;
    }

    /// Bucket index of `key` or kNpos; walks only the hop bitmap.
    [[nodiscard]] std::size_t find(std::uint64_t key) const {
      const std::size_t home = home_of(key);
      std::uint32_t word = hops[home];
      while (word != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(word));
        const std::size_t idx = (home + bit) & mask;
        if (used[idx] && keys[idx] == key) return idx;
        word &= word - 1;
      }
      return kNpos;
    }

    void clear_bucket(std::size_t idx, std::uint64_t key) {
      used[idx] = 0;
      const std::size_t home = home_of(key);
      hops[home] &= ~(1u << ((idx - home) & mask));
    }
  };

  void init_table(Table& t, std::size_t buckets);
  /// Place `key` in `t` (which must not already contain it); kNpos when
  /// the table is full or hopscotch displacement fails. On success returns
  /// the bucket index and reports the home distance via `dist_out`.
  std::size_t insert_key(Table& t, std::uint64_t key,
                         std::size_t* dist_out = nullptr);
  void grow();
  void migrate_some(std::size_t budget);
  void finish_migration();
  /// Stop-the-world fallback when incremental migration cannot place a
  /// bucket (pathological clustering): rehash everything into 2x capacity.
  void rehash_all(std::size_t new_buckets);

  Table live_;
  Table old_;  // non-empty while migrating_
  std::size_t old_live_ = 0;  // entries still waiting in old_
  std::size_t migrate_pos_ = 0;
  bool migrating_ = false;
  std::size_t size_ = 0;
  std::uint64_t table_allocations_ = 0;
  StoreStats stats_;
};

}  // namespace geochoice::store
