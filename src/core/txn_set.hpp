// A Proustian set, demonstrating that wrappers compose: it is a thin
// abstract-type adapter over the eager Proustian map (element → unit), so it
// inherits the map's conflict abstraction (per-element striping), update
// strategy, and unlocked read path (contains() rides the map's guarded
// lookup — DESIGN.md §12) for free.
#pragma once

#include "core/txn_hash_map.hpp"

namespace proust::core {

template <class K, LockAllocatorPolicy<K> Lap>
class TxnSet {
 public:
  explicit TxnSet(Lap& lap, std::size_t stripes = 64) : map_(lap, stripes) {}

  /// Returns true if the element was newly added.
  bool add(stm::Txn& tx, const K& key) {
    return !map_.put(tx, key, char{1}).has_value();
  }

  /// Returns true if the element was present and removed.
  bool remove(stm::Txn& tx, const K& key) {
    return map_.remove(tx, key).has_value();
  }

  bool contains(stm::Txn& tx, const K& key) {
    return map_.contains(tx, key);
  }

  long size() const noexcept { return map_.size(); }

  void unsafe_add(const K& key) { map_.unsafe_put(key, char{1}); }

 private:
  TxnHashMap<K, char, Lap> map_;
};

}  // namespace proust::core
