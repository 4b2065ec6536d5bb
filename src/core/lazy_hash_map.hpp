// The lazy Proustian map with a *memoizing* shadow copy (§4 "Memoization",
// the paper's LazyHashMap over ConcurrentHashMap). Updates are queued in a
// transaction-local memo log; results are computed from the memo table plus
// the unmodified backing map; the log is replayed behind the STM's commit
// locks. With `combine_log`, replay applies only the final state of each
// touched key — the optimization measured at the bottom of Figure 4.
#pragma once

#include <optional>
#include <string>

#include "containers/striped_hash_map.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/replay_log.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class K, class V, LockAllocatorPolicy<K> Lap>
class LazyHashMap {
  using Base = containers::StripedHashMap<K, V>;
  using Log = MemoReplayLog<Base, K, V>;

 public:
  explicit LazyHashMap(Lap& lap, bool combine_log = false,
                       std::size_t stripes = 64)
      : lock_(lap, UpdateStrategy::Lazy), combine_(combine_log),
        map_(stripes) {}

  std::optional<V> put(stm::Txn& tx, const K& key, const V& value) {
    return lock_.apply(tx, key, /*write=*/true, [&] {
      std::optional<V> ret = log(tx).put(key, value);
      if (!ret) size_.bump(tx, +1);
      return ret;
    });
  }

  std::optional<V> get(stm::Txn& tx, const K& key) {
    return lock_.apply(tx, key, /*write=*/false, [&]() -> std::optional<V> {
      // readOnly optimization: no log yet means the backing map is still
      // this transaction's consistent view.
      if (!handle_.engaged(tx)) return map_.get(key);
      return log(tx).get(key);
    });
  }

  bool contains(stm::Txn& tx, const K& key) {
    return lock_.apply(tx, key, /*write=*/false, [&] {
      if (!handle_.engaged(tx)) return map_.contains(key);
      return log(tx).contains(key);
    });
  }

  std::optional<V> remove(stm::Txn& tx, const K& key) {
    return lock_.apply(tx, key, /*write=*/true, [&] {
      std::optional<V> ret = log(tx).remove(key);
      if (ret) size_.bump(tx, -1);
      return ret;
    });
  }

  long size() const noexcept { return size_.load(); }

  void unsafe_put(const K& key, const V& value) {
    if (!map_.put(key, value)) size_.unsafe_add(1);
  }

  /// The base map's structural check (quiescent use only; empty = sound).
  std::string check_invariants() const { return map_.check_invariants(); }

 private:
  Log& log(stm::Txn& tx) {
    return handle_.log(
        tx, [this, &tx] { return Log(map_, combine_, tx.scratch()); });
  }

  AbstractLock<K, Lap> lock_;
  TxnLogHandle<Log> handle_;
  bool combine_;
  Base map_;
  CommittedSize size_;
};

}  // namespace proust::core
