// The lazy Proustian map with *snapshot* shadow copies (Figure 2b's
// LazyTrieMap): wraps the snapshottable HAMT (our stand-in for Scala's
// concurrent TrieMap). The first update in a transaction takes an O(1)
// snapshot; speculative operations run against it; the operation log is
// replayed onto the shared trie behind the STM's commit locks.
#pragma once

#include <optional>

#include "containers/snapshot_hamt.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/replay_log.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class K, class V, LockAllocatorPolicy<K> Lap>
class LazyTrieMap {
  using Base = containers::SnapshotHamt<K, V>;
  using Log = SnapshotMapReplayLog<Base, K, V>;

 public:
  /// `combine_log` enables the snapshot-replay log-combining extension
  /// (§9 future work): replay one synthetic update per dirty key, with the
  /// final value read from the snapshot.
  explicit LazyTrieMap(Lap& lap, bool combine_log = false)
      : lock_(lap, UpdateStrategy::Lazy), combine_(combine_log) {}

  std::optional<V> put(stm::Txn& tx, const K& key, const V& value) {
    return lock_.apply(tx, key, /*write=*/true, [&] {
      std::optional<V> ret = log(tx).put(key, value);
      if (!ret) size_.bump(tx, +1);
      return ret;
    });
  }

  std::optional<V> get(stm::Txn& tx, const K& key) {
    return lock_.apply(tx, key, /*write=*/false, [&] {
      return read_only(tx, [&](const auto& t) { return t.get(key); });
    });
  }

  bool contains(stm::Txn& tx, const K& key) {
    return lock_.apply(tx, key, /*write=*/false, [&] {
      return read_only(tx, [&](const auto& t) { return t.contains(key); });
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

 private:
  Log& log(stm::Txn& tx) {
    return handle_.log(tx, [this, &tx] {
      return Log(map_, fence_, combine_, tx.scratch());
    });
  }

  /// Figure 2b's readOnly: avoid initializing the log (and snapshotting)
  /// until a replay is actually necessary.
  template <class F>
  auto read_only(stm::Txn& tx, F&& f) {
    if (!handle_.engaged(tx)) return f(map_);
    return f(log(tx).shadow());
  }

  AbstractLock<K, Lap> lock_;
  TxnLogHandle<Log> handle_;
  bool combine_;
  Base map_;
  stm::CommitFence fence_;  // snapshots vs concurrent commits (commit_fence.hpp)
  CommittedSize size_;
};

}  // namespace proust::core
