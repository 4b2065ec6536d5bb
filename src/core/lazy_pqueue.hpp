// The lazy Proustian priority queue (§4/§6): snapshot shadow copies over the
// copy-on-write heap. This is the configuration the paper highlights as out
// of reach for original Boosting — removeMin has no efficient inverse, so an
// eager strategy is awkward, but the lazy strategy only needs the COW base's
// O(1) snapshot.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "containers/cow_heap.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/pqueue_state.hpp"
#include "core/replay_log.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class T, LockAllocatorPolicy<PQueueState> Lap,
          class Compare = std::less<T>>
class LazyPriorityQueue {
  using Base = containers::CowHeap<T, Compare>;
  using Log = SnapshotReplayLog<Base>;

 public:
  explicit LazyPriorityQueue(Lap& lap) : lock_(lap, UpdateStrategy::Lazy) {}

  void insert(stm::Txn& tx, const T& value) {
    const std::optional<T> cur = min(tx);
    const bool lowers_min = !cur || Compare{}(value, *cur);
    lock_.apply(
        tx,
        {Write(PQueueState::MultiSet),
         lowers_min ? Write(PQueueState::Min) : Read(PQueueState::Min)},
        [&] {
          log(tx).execute([value](auto& t) { t.insert(value); });
          size_.bump(tx, +1);
        });
  }

  std::optional<T> min(stm::Txn& tx) {
    return lock_.apply(tx, {Read(PQueueState::Min)}, [&] {
      return read_only(tx, [](const auto& t) { return t.peek_min(); });
    });
  }

  std::optional<T> remove_min(stm::Txn& tx) {
    return lock_.apply(
        tx, {Write(PQueueState::Min), Write(PQueueState::MultiSet)}, [&] {
          std::optional<T> ret =
              log(tx).execute([](auto& t) { return t.remove_min(); });
          if (ret) size_.bump(tx, -1);
          return ret;
        });
  }

  bool contains(stm::Txn& tx, const T& value) {
    return lock_.apply(tx, {Read(PQueueState::MultiSet)}, [&] {
      return read_only(tx, [&value](const auto& t) { return t.contains(value); });
    });
  }

  long size() const noexcept { return size_.load(); }

  void unsafe_insert(const T& value) {
    heap_.insert(value);
    size_.unsafe_add(1);
  }

  /// The base COW heap's structural check (quiescent use only; empty =
  /// sound).
  std::string check_invariants() const { return heap_.check_invariants(); }

 private:
  Log& log(stm::Txn& tx) {
    return handle_.log(
        tx, [this, &tx] { return Log(heap_, fence_, tx.scratch()); });
  }

  template <class F>
  auto read_only(stm::Txn& tx, F&& f) {
    if (!handle_.engaged(tx)) return f(heap_);
    return f(log(tx).shadow());
  }

  AbstractLock<PQueueState, Lap> lock_;
  TxnLogHandle<Log> handle_;
  Base heap_;
  stm::CommitFence fence_;  // snapshots vs concurrent commits (commit_fence.hpp)
  CommittedSize size_;
};

}  // namespace proust::core
