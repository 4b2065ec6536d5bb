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

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "containers/blocking_pqueue.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/pqueue_state.hpp"
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
  explicit TxnPriorityQueue(Lap& lap) : lock_(lap, UpdateStrategy::Eager) {}

  void insert(stm::Txn& tx, const T& value) {
    const std::optional<T> cur = min(tx);
    const bool lowers_min = !cur || Compare{}(value, *cur);
    lock_.apply(
        tx,
        {Write(PQueueState::MultiSet),
         lowers_min ? Write(PQueueState::Min) : Read(PQueueState::Min)},
        [&] {
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
    // On the unlocked side (DESIGN.md §12) a guarded read of the Min slot.
    // The cleanup only drops cells that an aborted insert tombstoned, which
    // left the abstract state with that abort, so it needs no lock.
    return lock_.read(tx, PQueueState::Min, [&]() -> std::optional<T> {
      for (;;) {
        std::optional<CellPtr> top = pq_.peek();
        if (!top) return std::nullopt;
        if (!(*top)->deleted.load(std::memory_order_acquire)) {
          return (*top)->value;
        }
        pq_.remove_one(*top);  // physical cleanup
      }
    });
  }

  std::optional<T> remove_min(stm::Txn& tx) {
    return lock_.apply(
        tx, {Write(PQueueState::Min), Write(PQueueState::MultiSet)},
        [&]() -> std::optional<T> {
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
    return lock_.read(tx, PQueueState::MultiSet, [&] {
      bool found = false;
      Compare less{};
      pq_.for_each([&](const CellPtr& c) {
        if (!found && !c->deleted.load(std::memory_order_acquire) &&
            !less(c->value, value) && !less(value, c->value)) {
          found = true;
        }
      });
      return found;
    });
  }

  /// Committed size (reified, like the maps').
  long size() const noexcept { return size_.load(); }

  void unsafe_insert(const T& value) {
    pq_.add(std::make_shared<Cell>(value));
    size_.unsafe_add(1);
  }

  /// The base queue's heap order, and that no cell sits in it twice (an
  /// inverse adds a fresh cell; remove_min and min's cleanup drop the one
  /// they found). Quiescent use only; empty = sound.
  std::string check_invariants() const {
    if (std::string err = pq_.check_invariants(); !err.empty()) return err;
    std::vector<const Cell*> cells;
    pq_.for_each([&](const CellPtr& c) { cells.push_back(c.get()); });
    std::sort(cells.begin(), cells.end());
    if (std::adjacent_find(cells.begin(), cells.end()) != cells.end()) {
      return "a cell appears twice in the base queue";
    }
    return {};
  }

 private:
  AbstractLock<PQueueState, Lap> lock_;
  containers::BlockingPriorityQueue<CellPtr, CellCompare> pq_;
  CommittedSize size_;
};

}  // namespace proust::core
