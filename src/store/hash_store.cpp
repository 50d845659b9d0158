// hash_store.cpp — hopscotch displacement, incremental resize, and the
// obs mirror for store counters. The lookup fast path stays in the header.
#include "store/hash_store.hpp"

#include <bit>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace geochoice::store {

namespace {

/// Smallest power of two >= n, floored at the neighborhood size so hop
/// distances never alias modulo the capacity.
std::size_t round_capacity(std::size_t n) {
  std::size_t cap = HashStore::kNeighborhood;
  while (cap < n) cap <<= 1;
  return cap;
}

const obs::Histogram& probe_len_histogram() {
  static const obs::Histogram h("store.probe_len",
                                {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  return h;
}

}  // namespace

HashStore::HashStore(std::size_t initial_capacity) {
  init_table(live_, round_capacity(initial_capacity));
}

void HashStore::init_table(Table& t, std::size_t buckets) {
  t.keys.assign(buckets, 0);
  t.values.assign(buckets, 0);
  t.hops.assign(buckets, 0);
  t.used.assign(buckets, 0);
  t.mask = buckets - 1;
  ++table_allocations_;
}

std::size_t HashStore::insert_key(Table& t, std::uint64_t key,
                                  std::size_t* dist_out) {
  const std::size_t cap = t.keys.size();
  const std::size_t home = t.home_of(key);

  // Linear-probe for the first free bucket.
  std::size_t dist = 0;
  for (; dist < cap; ++dist) {
    if (!t.used[(home + dist) & t.mask]) break;
  }
  if (dist == cap) return kNpos;  // completely full

  // Hopscotch: walk the free bucket backward into the home neighborhood.
  std::size_t free = (home + dist) & t.mask;
  while (dist >= kNeighborhood) {
    bool moved = false;
    for (std::size_t off = kNeighborhood - 1; off >= 1; --off) {
      const std::size_t base = (free + cap - off) & t.mask;
      const std::uint32_t word = t.hops[base];
      if (word == 0) continue;
      const auto bit = static_cast<unsigned>(std::countr_zero(word));
      if (bit >= off) continue;  // nothing homed at base sits before free
      const std::size_t from = (base + bit) & t.mask;
      t.keys[free] = t.keys[from];
      t.values[free] = t.values[from];
      t.used[free] = 1;
      t.used[from] = 0;
      t.hops[base] = (word & ~(1u << bit)) | (1u << off);
      free = from;
      dist -= off - bit;
      moved = true;
      break;
    }
    if (!moved) return kNpos;  // displacement failed; caller grows
  }

  t.keys[free] = key;
  t.used[free] = 1;
  t.hops[home] |= 1u << dist;
  if (dist_out != nullptr) *dist_out = dist;
  return free;
}

bool HashStore::put_u64(std::uint64_t key, std::uint64_t value) {
  static const obs::Counter c_puts("store.puts");
  c_puts.add(1);
  migrate_some(kMigrateBatch);

  // Overwrite in place when the key is already present (either table).
  if (std::size_t idx = live_.find(key); idx != kNpos) {
    live_.values[idx] = value;
    ++stats_.overwrites;
    return false;
  }
  if (migrating_) {
    if (std::size_t idx = old_.find(key); idx != kNpos) {
      old_.values[idx] = value;
      ++stats_.overwrites;
      return false;
    }
  }

  // Keep the live table under ~13/16 occupancy so displacement stays cheap.
  if ((size_ - old_live_ + 1) * 16 > live_.keys.size() * 13) grow();

  std::size_t dist = 0;
  std::size_t idx = insert_key(live_, key, &dist);
  if (idx == kNpos) {
    grow();
    idx = insert_key(live_, key, &dist);
    if (idx == kNpos) {
      rehash_all(live_.keys.size() * 2);
      idx = insert_key(live_, key, &dist);
      if (idx == kNpos) throw std::logic_error("HashStore: insert failed");
    }
  }
  live_.values[idx] = value;
  ++size_;
  ++stats_.puts;
  probe_len_histogram().observe(static_cast<double>(dist) + 1.0);
  return true;
}

std::optional<std::uint64_t> HashStore::get_u64(std::uint64_t key) {
  static const obs::Counter c_gets("store.gets");
  static const obs::Counter c_misses("store.misses");
  c_gets.add(1);
  migrate_some(kMigrateBatch);
  ++stats_.gets;
  if (std::size_t idx = live_.find(key); idx != kNpos) {
    ++stats_.hits;
    return live_.values[idx];
  }
  if (migrating_) {
    if (std::size_t idx = old_.find(key); idx != kNpos) {
      ++stats_.hits;
      return old_.values[idx];
    }
  }
  ++stats_.misses;
  c_misses.add(1);
  return std::nullopt;
}

bool HashStore::erase(std::uint64_t key) {
  migrate_some(kMigrateBatch);
  Table* t = nullptr;
  std::size_t idx = live_.find(key);
  if (idx != kNpos) {
    t = &live_;
  } else if (migrating_) {
    idx = old_.find(key);
    if (idx != kNpos) t = &old_;
  }
  if (t == nullptr) return false;
  t->clear_bucket(idx, key);
  if (t == &old_) --old_live_;
  --size_;
  ++stats_.erases;
  return true;
}

void HashStore::grow() {
  static const obs::Counter c_resizes("store.resizes");
  static const obs::Timer resize_timer("store.resize");
  obs::Span span(resize_timer);
  c_resizes.add(1);
  ++stats_.resizes;
  // Only one old table at a time: drain any in-flight migration first.
  if (migrating_) finish_migration();
  old_ = std::move(live_);
  live_ = Table{};
  init_table(live_, (old_.mask + 1) * 2);
  migrating_ = true;
  old_live_ = size_;
  migrate_pos_ = 0;
}

void HashStore::migrate_some(std::size_t budget) {
  if (!migrating_) return;
  const std::size_t cap = old_.used.size();
  while (budget > 0 && migrate_pos_ < cap) {
    const std::size_t i = migrate_pos_++;
    --budget;
    if (!old_.used[i]) continue;
    const std::uint64_t key = old_.keys[i];
    const std::size_t idx = insert_key(live_, key);
    if (idx == kNpos) {
      // The double-size table refused a bucket (pathological clustering):
      // fall back to a full rehash at 2x the refusing capacity. old_ is
      // consumed by rehash_all, so migration is over either way.
      rehash_all(live_.keys.size() * 2);
      return;
    }
    live_.values[idx] = old_.values[i];
    old_.used[i] = 0;
    --old_live_;
    ++stats_.migrated;
  }
  if (migrate_pos_ >= cap) {
    old_ = Table{};
    migrating_ = false;
    old_live_ = 0;
    migrate_pos_ = 0;
  }
}

void HashStore::finish_migration() {
  while (migrating_) migrate_some(old_.used.size());
}

void HashStore::rehash_all(std::size_t new_buckets) {
  Table fresh;
  init_table(fresh, round_capacity(new_buckets));
  auto move_all = [&](Table& from) {
    for (std::size_t i = 0; i < from.used.size(); ++i) {
      if (!from.used[i]) continue;
      const std::size_t idx = insert_key(fresh, from.keys[i]);
      if (idx == kNpos) {
        throw std::logic_error("HashStore: rehash displacement failed");
      }
      fresh.values[idx] = from.values[i];
    }
  };
  move_all(live_);
  if (migrating_) move_all(old_);
  live_ = std::move(fresh);
  old_ = Table{};
  migrating_ = false;
  old_live_ = 0;
  migrate_pos_ = 0;
}

}  // namespace geochoice::store
