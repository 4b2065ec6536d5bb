// The eager Proustian map (Figure 2a): wraps a thread-safe StripedHashMap,
// mutating it immediately inside the transaction and registering a declared
// inverse for each update as a rollback handler. The LAP passed at
// construction decides optimistic (conflict abstraction) vs pessimistic
// (abstract locks) conflict resolution.
#pragma once

#include <optional>
#include <string>

#include "containers/striped_hash_map.hpp"
#include "core/abstract_lock.hpp"
#include "stm/thread_registry.hpp"
#include "core/committed_size.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class K, class V, LockAllocatorPolicy<K> Lap>
class TxnHashMap {
 public:
  explicit TxnHashMap(Lap& lap, std::size_t stripes = 64)
      : lock_(lap, UpdateStrategy::Eager), map_(stripes) {}

  /// Insert or replace. Returns the previous mapping, as Figure 2a's put.
  std::optional<V> put(stm::Txn& tx, const K& key, const V& value) {
    return lock_.apply(
        tx, key, /*write=*/true,
        [&] {
          std::optional<V> ret = map_.put(key, value);
          if (!ret) size_.bump(tx, +1);
          return ret;
        },
        [this, key](const std::optional<V>& old) {
          if (old) {
            map_.put(key, *old);
          } else {
            map_.remove(key);
          }
        });
  }

  std::optional<V> get(stm::Txn& tx, const K& key) {
    // On the unlocked side (DESIGN.md §12) this is a guarded read of the
    // key's CA slot, whose mutators hold it locked across mutation and
    // rollback. Reading our own prior write is covered either way: an eager
    // write already landed in the base, and its slot lock is ours.
    const std::size_t h = map_.hash_of(key);
    map_.prefetch_bucket(h);
    return lock_.read(tx, key, [&] {
      pin_for_attempt(tx);
      return map_.get_hashed(h, key);
    });
  }

  bool contains(stm::Txn& tx, const K& key) {
    const std::size_t h = map_.hash_of(key);
    map_.prefetch_bucket(h);
    return lock_.read(tx, key, [&] {
      pin_for_attempt(tx);
      return map_.contains_hashed(h, key);
    });
  }

  std::optional<V> remove(stm::Txn& tx, const K& key) {
    return lock_.apply(
        tx, key, /*write=*/true,
        [&] {
          std::optional<V> ret = map_.remove(key);
          if (ret) size_.bump(tx, -1);
          return ret;
        },
        [this, key](const std::optional<V>& old) {
          if (old) map_.put(key, *old);
        });
  }

  /// Committed size (reified out of the abstract state; see Listing 2).
  long size() const noexcept { return size_.load(); }

  /// Quiescent (non-transactional) population, for benchmark setup.
  void unsafe_put(const K& key, const V& value) {
    if (!map_.put(key, value)) size_.unsafe_add(1);
  }

  /// The base map's structural check (quiescent use only; empty = sound).
  std::string check_invariants() const { return map_.check_invariants(); }

 private:
  /// Amortize the EBR announce fence across the attempt: the first read
  /// pins this thread's reader slot in the map's domain and schedules
  /// the unpin at finish (after the abort hooks — their inverses retire
  /// nodes under this same pin). Later reads, and any writer Guards nested
  /// inside the attempt, find the slot pinned and skip the fence. The pin
  /// bounds reclamation stall by attempt length, which the watchdog already
  /// bounds.
  void pin_for_attempt(stm::Txn& tx) {
    const unsigned slot = stm::ThreadRegistry::slot();
    if (!map_.reader_pin(slot)) return;  // already ours for this attempt
    tx.on_finish(
        [this, slot](stm::Outcome) { map_.reader_unpin(slot); });
  }

  AbstractLock<K, Lap> lock_;
  containers::StripedHashMap<K, V> map_;
  CommittedSize size_;
};

}  // namespace proust::core
