// Replay wrappers and shadow copies (§4): the machinery behind the lazy
// update strategy. Pending ADT operations are queued in a per-transaction
// log; the transaction observes their results through a *shadow copy*; at
// commit the log is applied to the shared base structure behind the STM's
// native locks (our Txn::on_commit_locked hook). On abort the log simply
// dies with the transaction attempt.
//
// Two shadow-copy implementations, as in the paper:
//   SnapshotReplayLog — for bases with fast-snapshot semantics (SnapshotHamt,
//                       CowHeap): speculative operations run on an O(1)
//                       snapshot; the logged operations are replayed onto the
//                       shared copy at commit.
//   MemoReplayLog     — for key-value bases whose operation results are
//                       computable from the initial state plus pending
//                       operations: a transaction-local memo table per key.
//                       Optionally *log-combining*: replay one synthetic
//                       update carrying only the final state of each touched
//                       key (the optimization at the bottom of Figure 4).
//
// All log state — op entries, memo tables, dirty sets — is carved from the
// transaction's scratch arena (Txn::scratch()), whose blocks are retained
// across attempts and transactions: in steady state the lazy path performs
// zero heap allocations (tests/stm_alloc_test.cpp pins this). Logs are
// transaction-locals, so their destructors run before the arena rewinds.
//
// Snapshot logs coordinate with concurrent commits through the owning
// wrapper's CommitFence: a snapshot must not observe a base that is missing
// a logically-committed, not-yet-replayed commit, nor half of a replay in
// flight (see stm/commit_fence.hpp for the hazard). Memo logs need no fence:
// a memo line reads the base one key at a time, under that key's abstract
// lock, whose acquisition already proves that every commit serialized
// before this transaction has replayed that key (OptimisticLap::acquire's
// validated read; PessimisticLap holds its locks past the replay).
#pragma once

#include <optional>
#include <type_traits>
#include <utility>

#include "common/arena_containers.hpp"
#include "stm/commit_fence.hpp"
#include "stm/stm.hpp"

namespace proust::core {

template <class Base>
class SnapshotReplayLog {
 public:
  using Snapshot = typename Base::Snapshot;

  SnapshotReplayLog(Base& base, stm::CommitFence& fence, BumpArena& scratch)
      : base_(&base), fence_(&fence),
        snap_(fence.consistent([&base] { return base.snapshot(); })),
        scratch_(&scratch), log_(scratch) {}

  ~SnapshotReplayLog() {
    log_.for_each([](Entry& e) {
      if (e.destroy != nullptr) e.destroy(e.obj);
    });
  }

  Snapshot& shadow() noexcept { return snap_; }
  const Snapshot& shadow() const noexcept { return snap_; }

  /// Run `op` against the shadow copy now (producing the value the
  /// transaction observes) and queue it for replay against the base at
  /// commit. `op` must be a generic callable valid on both Snapshot& and
  /// Base& — the wrappers' operations are, by construction. The op object
  /// is copied into the scratch arena as a tagged (apply, destroy, state)
  /// entry; no type-erased allocation happens.
  template <class Op>
  auto execute(Op op) {
    void* mem = scratch_->allocate(sizeof(Op), alignof(Op));
    Op* stored = ::new (mem) Op(op);
    void (*destroy)(void*) = nullptr;
    if constexpr (!std::is_trivially_destructible_v<Op>) {
      destroy = [](void* p) { static_cast<Op*>(p)->~Op(); };
    }
    log_.emplace_back(
        Entry{[](void* p, Base& b) { (void)(*static_cast<Op*>(p))(b); },
              destroy, stored});
    if constexpr (std::is_void_v<decltype(op(snap_))>) {
      op(snap_);
    } else {
      return op(snap_);
    }
  }

  stm::CommitFence& fence() noexcept { return *fence_; }

  /// Apply the queued operations to the shared base. Called from
  /// Txn::on_commit_locked; must not throw.
  void replay() noexcept {
    // Self-bracketed for direct (non-transactional) use; inside a commit
    // the STM's own fence bracket already encloses this (entries nest).
    stm::CommitFence::Guard guard(*fence_);
    Base& base = *base_;
    log_.for_each([&base](Entry& e) { e.apply(e.obj, base); });
  }

  std::size_t pending() const noexcept { return log_.size(); }

 private:
  struct Entry {
    void (*apply)(void*, Base&);
    void (*destroy)(void*);  // null for trivially destructible ops
    void* obj;
  };

  Base* base_;
  stm::CommitFence* fence_;
  Snapshot snap_;
  BumpArena* scratch_;
  ArenaChunkList<Entry> log_;
};

/// Snapshot shadow copy specialized for map-like bases, with optional log
/// combining — §9's future-work extension "from memoized replays to
/// snapshot replays", implemented. Without combining it replays the
/// operation sequence (like SnapshotReplayLog); with combining it replays
/// one synthetic update per dirty key, reading the key's final value out of
/// the snapshot.
template <class Base, class K, class V>
class SnapshotMapReplayLog {
 public:
  using Snapshot = typename Base::Snapshot;

  SnapshotMapReplayLog(Base& base, stm::CommitFence& fence, bool combine,
                       BumpArena& scratch)
      : base_(&base), fence_(&fence),
        snap_(fence.consistent([&base] { return base.snapshot(); })),
        combine_(combine), dirty_(scratch), ops_(scratch) {}

  Snapshot& shadow() noexcept { return snap_; }
  const Snapshot& shadow() const noexcept { return snap_; }

  std::optional<V> get(const K& key) const { return snap_.get(key); }
  bool contains(const K& key) const { return snap_.contains(key); }

  std::optional<V> put(const K& key, const V& value) {
    mark_dirty(key);
    if (!combine_) ops_.emplace_back(Op{key, value});
    return snap_.put(key, value);
  }

  std::optional<V> remove(const K& key) {
    mark_dirty(key);
    if (!combine_) ops_.emplace_back(Op{key, std::nullopt});
    return snap_.remove(key);
  }

  stm::CommitFence& fence() noexcept { return *fence_; }

  void replay() noexcept {
    stm::CommitFence::Guard guard(*fence_);
    if (combine_) {
      dirty_.for_each([this](const K& key, const Empty&) {
        if (std::optional<V> v = snap_.get(key)) {
          base_->put(key, *v);
        } else {
          base_->remove(key);
        }
      });
    } else {
      ops_.for_each([this](const Op& op) {
        if (op.value) {
          base_->put(op.key, *op.value);
        } else {
          base_->remove(op.key);
        }
      });
    }
  }

  std::size_t pending() const noexcept {
    return combine_ ? dirty_.size() : ops_.size();
  }

 private:
  struct Empty {};
  struct Op {
    K key;
    std::optional<V> value;
  };

  void mark_dirty(const K& key) {
    if (!combine_) return;
    bool inserted = false;
    dirty_.get_or_emplace(key, inserted);
  }

  Base* base_;
  stm::CommitFence* fence_;
  Snapshot snap_;
  bool combine_;
  ArenaFlatMap<K, Empty> dirty_;
  ArenaChunkList<Op> ops_;
};

/// Memoizing shadow copy for map-like bases (get/put/remove on K→V).
template <class Base, class K, class V>
class MemoReplayLog {
 public:
  MemoReplayLog(Base& base, bool combine, BumpArena& scratch)
      : base_(&base), combine_(combine), cache_(scratch), ops_(scratch) {}

  std::optional<V> get(const K& key) { return line_for(key).value; }

  bool contains(const K& key) { return get(key).has_value(); }

  std::optional<V> put(const K& key, const V& value) {
    Line& line = line_for(key);
    std::optional<V> old = line.value;
    line.value = value;
    mark_dirty(line);
    if (!combine_) ops_.emplace_back(Op{key, value});
    return old;
  }

  std::optional<V> remove(const K& key) {
    Line& line = line_for(key);
    std::optional<V> old = line.value;
    line.value = std::nullopt;
    mark_dirty(line);
    if (!combine_) ops_.emplace_back(Op{key, std::nullopt});
    return old;
  }

  /// Commit-time application. With combining, one synthetic update per dirty
  /// key (final state only); without, the full operation sequence — the cost
  /// difference is what the Figure 4 bottom block measures.
  void replay() noexcept {
    if (combine_) {
      cache_.for_each([this](const K& key, Line& line) {
        if (!line.dirty) return;
        if (line.value) {
          base_->put(key, *line.value);
        } else {
          base_->remove(key);
        }
      });
    } else {
      ops_.for_each([this](const Op& op) {
        if (op.value) {
          base_->put(op.key, *op.value);
        } else {
          base_->remove(op.key);
        }
      });
    }
  }

  std::size_t pending() const noexcept {
    return combine_ ? dirty_count_ : ops_.size();
  }

 private:
  struct Line {
    std::optional<V> value;  // nullopt = absent / (pending) removed
    bool dirty = false;
  };
  struct Op {
    K key;
    std::optional<V> value;  // nullopt = remove
  };

  /// The memo line for `key`, reading the base exactly once on first touch.
  Line& line_for(const K& key) {
    bool inserted = false;
    Line& line = cache_.get_or_emplace(key, inserted);
    if (inserted) line.value = base_->get(key);
    return line;
  }

  void mark_dirty(Line& line) noexcept {
    if (!line.dirty) {
      line.dirty = true;
      ++dirty_count_;
    }
  }

  Base* base_;
  bool combine_;
  ArenaFlatMap<K, Line> cache_;
  ArenaChunkList<Op> ops_;
  std::size_t dirty_count_ = 0;
};

/// Per-wrapper handle managing the transaction-local lifecycle of a replay
/// log: lazily constructed on the first update (ReplayLog.construct's
/// TxnLocal in Figure 2b), with commit-time replay registered exactly once.
template <class Log>
class TxnLogHandle {
 public:
  /// Get or create this wrapper's log within `tx`. `make` builds the log on
  /// first use.
  template <class Make>
  Log& log(stm::Txn& tx, Make&& make) {
    const bool fresh = !tx.has_local(this);
    if (fresh) {
      // Pin the transaction's snapshot BEFORE taking the shadow copy: the
      // Theorem 5.3 read-after checks must detect any conflicting commit
      // that postdates it, so the read version may no longer slide forward
      // (see Txn::freeze_snapshot).
      tx.freeze_snapshot();
    }
    Log& l = tx.local<Log>(this, std::forward<Make>(make));
    if (fresh) {
      if constexpr (requires { l.fence(); }) {
        // Snapshot logs: the commit path must hold the wrapper's fence from
        // wv generation until the replay lands (commit_fence.hpp).
        tx.on_commit_locked([&l] { l.replay(); }, l.fence());
      } else {
        tx.on_commit_locked([&l] { l.replay(); });
      }
    }
    return l;
  }

  bool engaged(const stm::Txn& tx) const { return tx.has_local(this); }
};

}  // namespace proust::core
