// The eager Proustian priority queue (Figure 3), backed by a
// BlockingPriorityQueue of lazily-deletable cells — the same lazy-deletion
// trick the Boosting paper uses, which gives insert() an O(1) inverse
// (tombstone the cell) where the base container only offers O(n) removal.
//
// Lock requests follow Listing 3/Figure 3: insert takes Write(PQueueMultiSet)
// plus Write(PQueueMin) if it lowers the minimum, else Read(PQueueMin).
// Deviation from Figure 3 (documented in DESIGN.md): inserting into an
// *empty* queue also takes Write(PQueueMin) — the figure's getOrElse falls
// back to Read, but insert into an empty queue does not commute with min()
// or removeMin(), and our conflict-abstraction checker exhibits the
// counterexample (see tests/verify_test.cpp).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "containers/blocking_pqueue.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/pqueue_state.hpp"
#include "core/read_seq.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class T, LockAllocatorPolicy<PQueueState> Lap,
          class Compare = std::less<T>>
class TxnPriorityQueue {
  struct Cell {
    explicit Cell(const T& v) : value(v) {}
    T value;
    std::atomic<bool> deleted{false};
  };
  using CellPtr = std::shared_ptr<Cell>;

  /// Order by value, tie-broken by cell identity so that remove_one() on the
  /// base removes exactly the intended cell.
  struct CellCompare {
    bool operator()(const CellPtr& a, const CellPtr& b) const {
      Compare less{};
      if (less(a->value, b->value)) return true;
      if (less(b->value, a->value)) return false;
      return a.get() < b.get();
    }
  };

 public:
  explicit TxnPriorityQueue(Lap& lap)
      : lock_(lap, UpdateStrategy::Eager),
        seqs_(1, lock_.unlocked_reads()) {}

  void insert(stm::Txn& tx, const T& value) {
    const std::optional<T> cur = min(tx);
    const bool lowers_min = !cur || Compare{}(value, *cur);
    lock_.apply(
        tx,
        {Write(PQueueState::MultiSet),
         lowers_min ? Write(PQueueState::Min) : Read(PQueueState::Min)},
        [&] {
          if (seqs_.enabled()) seqs_.writer_pin(tx, 0);
          CellPtr cell = std::make_shared<Cell>(value);
          pq_.add(cell);
          size_.bump(tx, +1);
          return cell;
        },
        [](const CellPtr& cell) {
          // Inverse: logical deletion (Figure 3's `_.delete`).
          cell->deleted.store(true, std::memory_order_release);
        });
  }

  std::optional<T> min(stm::Txn& tx) {
    // Unlocked path (DESIGN.md §12): a single sequence word brackets
    // the whole queue (its abstract state has one hot component — the
    // minimum). A tombstoned top cell forces the locked path, whose cleanup
    // mutates the base.
    bool dirty = false;
    if (auto fast = lock_.try_read_unlocked(
            tx, seqs_.word(0), [&]() -> std::optional<T> {
              std::optional<CellPtr> top = pq_.peek();
              if (!top) return std::nullopt;
              if ((*top)->deleted.load(std::memory_order_acquire)) {
                dirty = true;
                return std::nullopt;
              }
              return (*top)->value;
            });
        fast && !dirty) {
      return *fast;
    }
    return lock_.apply(tx, {Read(PQueueState::Min)},
                       [&]() -> std::optional<T> {
                         for (;;) {
                           std::optional<CellPtr> top = pq_.peek();
                           if (!top) return std::nullopt;
                           if (!(*top)->deleted.load(std::memory_order_acquire))
                             return (*top)->value;
                           pq_.remove_one(*top);  // physical cleanup
                         }
                       });
  }

  std::optional<T> remove_min(stm::Txn& tx) {
    return lock_.apply(
        tx, {Write(PQueueState::Min), Write(PQueueState::MultiSet)},
        [&]() -> std::optional<T> {
          if (seqs_.enabled()) seqs_.writer_pin(tx, 0);
          for (;;) {
            std::optional<CellPtr> top = pq_.poll();
            if (!top) return std::nullopt;
            // exchange: claim the cell; skip ones tombstoned by aborted
            // inserts (their physical removal here doubles as cleanup).
            if ((*top)->deleted.exchange(true, std::memory_order_acq_rel))
              continue;
            size_.bump(tx, -1);
            return (*top)->value;
          }
        },
        [this](const std::optional<T>& removed) {
          if (removed) pq_.add(std::make_shared<Cell>(*removed));
        });
  }

  bool contains(stm::Txn& tx, const T& value) {
    const auto scan = [&] {
      bool found = false;
      Compare less{};
      pq_.for_each([&](const CellPtr& c) {
        if (!found && !c->deleted.load(std::memory_order_acquire) &&
            !less(c->value, value) && !less(value, c->value)) {
          found = true;
        }
      });
      return found;
    };
    if (auto fast = lock_.try_read_unlocked(tx, seqs_.word(0), scan)) {
      return *fast;
    }
    return lock_.apply(tx, {Read(PQueueState::MultiSet)}, scan);
  }

  /// Committed size (reified, like the maps').
  long size() const noexcept { return size_.load(); }

  void unsafe_insert(const T& value) {
    pq_.add(std::make_shared<Cell>(value));
    size_.unsafe_add(1);
  }

 private:
  AbstractLock<PQueueState, Lap> lock_;
  containers::BlockingPriorityQueue<CellPtr, CellCompare> pq_;
  ReadSeqTable seqs_;  // single word: the whole queue (unlocked reads only)
  CommittedSize size_;
};

}  // namespace proust::core
