// store.hpp — umbrella header for the storage layer (src/store/): the
// hopscotch HashStore, a u64 -> u64 table with incremental resize.
#pragma once

#include "store/hash_store.hpp"  // IWYU pragma: export
