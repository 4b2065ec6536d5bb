// Lock allocator policies (§2): the pluggable concurrency-control half of
// the Proust design space. A LAP maps abstract-lock invocations on keys to
// concrete synchronization:
//
//   OptimisticLap  — a conflict abstraction (§3): an M-slot region of
//                    STM-managed locations; Read(k) becomes a validated STM
//                    read of mem[h(k) mod M], Write(k) becomes an STM write
//                    of a fresh unique stamp. Non-commuting operations are
//                    thereby guaranteed to perform conflicting STM accesses
//                    (Definition 3.1), and the underlying STM detects and
//                    resolves them with its native machinery.
//
//   PessimisticLap — Boosting-style abstract locks: a striped table of
//                    re-entrant reader-writer locks held in two-phase style
//                    and released when the transaction finishes (either
//                    outcome). Acquisition is bounded; a timeout aborts the
//                    transaction, which is how deadlocks among abstract
//                    locks (invisible to the STM's contention manager — the
//                    "weak coupling" §7 laments) are broken.
//
// A LAP satisfies:
//   void acquire(stm::Txn&, const Key&, bool write);   // before the base op
//   void post_op(stm::Txn&, const Key&, bool write);   // after it (lazy CA read-back)
//   bool reads_visible();  // does a read acquire publish a visible-reader mark?
// A LAP may also offer read_guarded(tx, key, op), the unlocked read that
// AbstractLock::read runs for eager wrappers when reads_visible() holds
// (DESIGN.md §12); OptimisticLap does.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "stm/stm.hpp"
#include "sync/reentrant_rw_lock.hpp"

namespace proust::core {

template <class P, class Key>
concept LockAllocatorPolicy = requires(P p, stm::Txn& tx, const Key& k) {
  { p.acquire(tx, k, true) } -> std::same_as<void>;
  { p.post_op(tx, k, true) } -> std::same_as<void>;
  { p.reads_visible() } -> std::same_as<bool>;
  { p.stm() } -> std::same_as<stm::Stm&>;
};

/// The optimistic LAP: conflict abstraction over an STM-managed region.
/// `M` (the region size) trades memory for false conflicts exactly like
/// lock striping (§3); the striping ablation bench sweeps it.
template <class Key, class Hasher = proust::Hash<Key>>
class OptimisticLap {
 public:
  OptimisticLap(stm::Stm& stm, std::size_t m)
      : stm_(&stm), mem_(next_pow2(m)) {}

  OptimisticLap(const OptimisticLap&) = delete;
  OptimisticLap& operator=(const OptimisticLap&) = delete;

  void acquire(stm::Txn& tx, const Key& key, bool write) {
    stm::Var<std::uint64_t>& loc = slot(key);
    if (write) {
      // Validated read BEFORE the blind stamp write: the wrapped operation
      // is about to observe base state for this abstract region (a memo
      // line's first-touch read, an eager mutation's old value), so any
      // commit already serialized before this transaction — wv <= rv —
      // must have finished applying. The validation enforces exactly that:
      // a committer still inside its commit window holds this stripe's
      // lock (ReadLocked -> abort), and one that released it has replayed.
      // Without this, an injected delay between a peer's wv generation and
      // its replay lets the operation read pre-commit state that the
      // post_op read-after cannot distinguish (wv <= rv validates clean).
      tx.read_validate(loc);
      tx.write(loc, tx.fresh_stamp());
    } else {
      tx.read_validate(loc);
    }
  }

  /// Theorem 5.3's read-after-operation: re-validate that no conflicting
  /// transaction committed between this transaction's shadow-copy snapshot
  /// (or, for a read, its acquire) and now. Called by AbstractLock for
  /// every lock under the lazy update strategy.
  void post_op(stm::Txn& tx, const Key& key, bool /*write*/) {
    tx.read_validate(slot(key));
  }

  /// On EagerAll a CA read sets the slot's reader bit, which makes every
  /// writer of the slot yield; eager wrappers then read through
  /// read_guarded instead (DESIGN.md §12).
  bool reads_visible() const noexcept {
    return stm_->mode() == stm::Mode::EagerAll;
  }

  /// Run the read-only `op` as a guarded read of `key`'s slot
  /// (stm::Txn::read_guarded): no reader bit and no lock, validated against
  /// the slot's orec like any invisible STM read. Every mutator of the
  /// region under the slot holds its lock from the CA write to the end of
  /// its rollback.
  template <class F>
  auto read_guarded(stm::Txn& tx, const Key& key, F&& op) {
    return tx.read_guarded(slot(key), std::forward<F>(op));
  }

  stm::Stm& stm() noexcept { return *stm_; }
  std::size_t region_size() const noexcept { return mem_.size(); }

 private:
  stm::Var<std::uint64_t>& slot(const Key& key) {
    return mem_[Hasher{}(key) & (mem_.size() - 1)];
  }

  stm::Stm* stm_;
  std::vector<stm::Var<std::uint64_t>> mem_;
};

/// The pessimistic LAP: striped re-entrant RW abstract locks, two-phase,
/// released on transaction finish. `kind_of(key)` lets a wrapper choose the
/// group discipline per abstract-state element (the PQueueMultiSet trick).
///
/// Per-transaction hold state (re-entrancy counters, the set of stripes to
/// release at finish) lives in the transaction's arena as LockHold records —
/// one per distinct stripe touched — so an acquire is: one reverse scan of a
/// tiny flat array, then either a thread-local counter bump (mode already
/// held) or the lock's single-CAS group join. Release walks the records and
/// drops each held stripe exactly once.
template <class Key, class Hasher = proust::Hash<Key>>
class PessimisticLap {
 public:
  using Clock = std::chrono::steady_clock;

  /// Passing `kDefaultTimeout` (the default) takes the acquisition timeout
  /// from `stm.options().lap_timeout`, with per-thread jitter. An explicit
  /// timeout is used verbatim — no jitter — so tests can pin exact timing
  /// through this path.
  static constexpr std::chrono::nanoseconds kDefaultTimeout{-1};

  PessimisticLap(stm::Stm& stm, std::size_t stripes,
                 std::chrono::nanoseconds timeout = kDefaultTimeout)
      : stm_(&stm),
        locks_(next_pow2(stripes),
               [](std::size_t) { return sync::LockKind::kReaderWriter; }) {
    resolve_timeout(timeout);
  }

  /// Construct with a per-stripe lock discipline chooser (index → kind).
  template <class KindFn>
    requires std::invocable<KindFn&, std::size_t>
  PessimisticLap(stm::Stm& stm, std::size_t stripes, KindFn&& kind_of,
                 std::chrono::nanoseconds timeout = kDefaultTimeout)
      : stm_(&stm), locks_(next_pow2(stripes), kind_of) {
    resolve_timeout(timeout);
  }

  PessimisticLap(const PessimisticLap&) = delete;
  PessimisticLap& operator=(const PessimisticLap&) = delete;

  void acquire(stm::Txn& tx, const Key& key, bool write) {
    // Forced-timeout injection exercises the recovery path below without
    // waiting out a real timeout.
    if (tx.chaos_timeout_point(stm::ChaosPoint::LapAcquire)) {
      tx.retry(stm::AbortReason::AbstractLockTimeout);
    }
    sync::ReentrantRwLock& lock = locks_[stripe(key)];
    stm::TxnArena::LockHold& h = hold_for(tx, &lock);
    if (!lock.try_acquire(h.readers, h.writers, write, acquire_timeout())) {
      // Deadlock/timeout recovery: abort, drop all abstract locks (via the
      // finish hook), back off, retry.
      tx.retry(stm::AbortReason::AbstractLockTimeout);
    }
    // The stripe is ours until finish, so what the operation reads next is
    // stable; guarded reads of another wrapper earlier in this attempt must
    // still hold for the body to see both.
    tx.revalidate_guarded_reads();
  }

  void post_op(stm::Txn&, const Key&, bool) {}  // locks are held to finish

  /// Abstract read locks are invisible to the STM; wrappers keep them.
  bool reads_visible() const noexcept { return false; }

  stm::Stm& stm() noexcept { return *stm_; }

 private:
  /// Contiguous cache-line-aligned stripe array. ReentrantRwLock is neither
  /// copyable nor movable, so the table placement-constructs into raw
  /// storage instead of using std::vector.
  class StripeTable {
   public:
    template <class KindFn>
    StripeTable(std::size_t n, KindFn&& kind_of)
        : locks_(static_cast<sync::ReentrantRwLock*>(
              ::operator new(n * sizeof(sync::ReentrantRwLock), kAlign))),
          n_(n) {
      for (std::size_t i = 0; i < n; ++i) {
        ::new (static_cast<void*>(locks_ + i)) sync::ReentrantRwLock(kind_of(i));
      }
    }
    ~StripeTable() {
      for (std::size_t i = n_; i-- > 0;) locks_[i].~ReentrantRwLock();
      ::operator delete(locks_, kAlign);
    }
    StripeTable(const StripeTable&) = delete;
    StripeTable& operator=(const StripeTable&) = delete;

    sync::ReentrantRwLock& operator[](std::size_t i) noexcept {
      return locks_[i];
    }
    std::size_t size() const noexcept { return n_; }

   private:
    static constexpr std::align_val_t kAlign{alignof(sync::ReentrantRwLock)};

    sync::ReentrantRwLock* locks_;
    std::size_t n_;
  };

  std::size_t stripe(const Key& key) const {
    return Hasher{}(key) & (locks_.size() - 1);
  }

  void resolve_timeout(std::chrono::nanoseconds timeout) {
    jitter_ = timeout == kDefaultTimeout;
    timeout_ = jitter_ ? stm_->options().lap_timeout : timeout;
  }

  /// The calling thread's effective acquisition timeout. With jitter on
  /// (the default timeout), each registry slot gets a fixed point in
  /// [t − t/4, t + t/4]: symmetric abstract-lock deadlocks are broken by
  /// both parties timing out, and identical timeouts make them abort in
  /// lockstep and re-collide on the retry, while jittered ones let one
  /// party win the second race.
  std::chrono::nanoseconds acquire_timeout() const {
    if (!jitter_) return timeout_;
    std::uint64_t x = stm::ThreadRegistry::slot() + 1;
    x *= 0x9E3779B97F4A7C15ULL;
    x ^= x >> 32;
    const std::int64_t t = timeout_.count();
    const std::int64_t span = t / 2;  // jitter window width: [−t/4, +t/4]
    if (span <= 0) return timeout_;
    const auto off = static_cast<std::int64_t>(x % (span + 1)) - t / 4;
    return std::chrono::nanoseconds{t + off};
  }

  /// The transaction's hold record for `lock`, created (with a one-time
  /// finish hook for this LAP) on first touch of any of its stripes.
  stm::TxnArena::LockHold& hold_for(stm::Txn& tx, void* lock) {
    std::vector<stm::TxnArena::LockHold>& holds = tx.lock_holds();
    bool lap_seen = false;
    // Newest-first: the stripe just touched is overwhelmingly the next one
    // touched again, and transactions hold few distinct stripes.
    for (std::size_t i = holds.size(); i-- > 0;) {
      if (holds[i].lock == lock) return holds[i];
      lap_seen = lap_seen || holds[i].group == this;
    }
    if (!lap_seen) {
      // First stripe of this LAP this attempt: hook the two-phase release
      // (both outcomes). One record per distinct stripe makes the walk
      // release each held stripe exactly once.
      tx.on_finish([this, &tx](stm::Outcome) {
        for (stm::TxnArena::LockHold& h : tx.lock_holds()) {
          if (h.group == this) {
            static_cast<sync::ReentrantRwLock*>(h.lock)->release_all(
                h.readers, h.writers);
          }
        }
      });
    }
    holds.push_back({this, lock, 0, 0});
    return holds.back();
  }

  stm::Stm* stm_;
  std::chrono::nanoseconds timeout_{};
  bool jitter_ = false;
  StripeTable locks_;
};

}  // namespace proust::core
