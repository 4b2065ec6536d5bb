// The transaction engine. One `Txn` object lives on the stack of an
// `Stm::atomically` call and is reused across retry attempts; its
// variable-sized state lives in a per-thread TxnArena (txn_arena.hpp) so
// that steady-state attempts allocate nothing.
//
// Three commit/abort protocols are implemented, selected by the Stm's Mode:
//
//   Lazy       — TL2: reads are validated against a snapshot version and
//                logged; writes are buffered; commit acquires write locks,
//                advances the clock, revalidates the read set, applies
//                commit-locked hooks (Proust replay logs), writes back and
//                releases.
//   EagerWrite — TinySTM write-through: writes lock the orec at encounter
//                time, save an undo value and update in place; reads use
//                timestamp extension; abort restores undo values.
//   EagerAll   — EagerWrite plus visible readers: reads publish a bit in the
//                var's reader bitmap, writers that find foreign readers abort
//                themselves. All conflicts are detected at encounter time,
//                which is the premise of Theorem 5.2. Eager wrappers'
//                reads over the optimistic LAP skip the bit: they are
//                guarded reads (read_guarded below), invisible and logged
//                in the read set as on EagerWrite.
//
// Hooks (the Proust integration points, §2 of the paper):
//   on_abort         — inverse operations; run in reverse order while the
//                      transaction's STM locks are still held.
//   on_commit_locked — replay-log application; runs after read validation,
//                      "behind the STM's native locking mechanisms". Must not
//                      throw.
//   on_commit        — post-commit notifications (after locks released).
//   on_finish        — runs on both outcomes, last; pessimistic abstract-lock
//                      release hangs off this.
//
// Write-set lookup is a two-tier index: a pointer-hash Bloom summary word
// gates a linear scan while the write set is small (≤ kSmallWriteSet
// entries), then an open-addressing flat table (reused across attempts)
// takes over. Both tiers are allocation-free in steady state.
#pragma once

#include <cassert>
#include <cstring>
#include <memory>
#include <new>
#include <shared_mutex>
#include <type_traits>
#include <utility>

#include "stm/fwd.hpp"
#include "stm/options.hpp"
#include "stm/orec.hpp"
#include "stm/stats.hpp"
#include "stm/thread_registry.hpp"
#include "stm/txn_arena.hpp"
#include "stm/var.hpp"

namespace proust::stm {

class Txn {
 public:
  using Hook = SmallFunc<void()>;
  using FinishHook = SmallFunc<void(Outcome)>;

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  /// The currently running transaction of this thread, or nullptr.
  static Txn* current() noexcept;

  Stm& stm() noexcept { return stm_; }
  Mode mode() const noexcept { return mode_; }
  unsigned slot() const noexcept { return slot_; }
  unsigned attempt() const noexcept { return attempt_; }
  /// Attempts aborted for a reason the retry policy may act on. Injected
  /// chaos aborts (AbortReason::ChaosInjected) are excluded, so fault-
  /// injection runs cannot trip the irrevocable fallback spuriously.
  unsigned eligible_attempts() const noexcept { return eligible_attempts_; }

  /// Typed transactional accessors (the public read/write API).
  template <class T>
  T read(const Var<T>& v) {
    T out;
    read_impl(v, &out, sizeof(T));
    return out;
  }
  template <class T>
  void write(Var<T>& v, const std::type_identity_t<T>& value) {
    write_impl(v, &value, sizeof(T));
  }

  /// A process-unique stamp; conflict abstractions write these so that every
  /// CA write is a distinct value (§3: "values written are unique, such as
  /// sequence numbers or timestamps").
  std::uint64_t fresh_stamp() noexcept;

  /// A versioned read of `var` that never consults this transaction's own
  /// write buffer: it observes (and, in validating modes, logs) the last
  /// *committed* version. This is the "read(α)" of Theorem 5.3's
  /// write-before/read-after conflict-abstraction bracket — on a lazy STM a
  /// plain read would be satisfied from the transaction's own buffered
  /// write of α and would validate nothing.
  template <class T>
  void read_validate(const Var<T>& v) {
    read_validate_impl(v);
  }

  /// Pin this transaction's snapshot: from now on the read version may not
  /// slide forward (no timestamp extension), and conflict-abstraction reads
  /// validate against it in every mode. Replay logs call this when they
  /// take a shadow copy — the Theorem 5.3 argument needs "unchanged since
  /// MY SNAPSHOT", and extension (or EagerAll's version-free reads) would
  /// otherwise accept commits that postdate the shadow.
  void freeze_snapshot() noexcept { snapshot_frozen_ = true; }

  /// Set while this transaction holds the STM's exclusive fallback gate (it
  /// must not also take the shared side at commit).
  void set_gate_exempt(bool exempt) noexcept { gate_exempt_ = exempt; }

  // --- Guarded reads (DESIGN.md §12) ---------------------------------------
  /// Run the read-only `op` on state that `guard` protects, as an invisible
  /// read of `guard`: TinySTM's read with `op` in place of the value copy.
  /// The orec is loaded, `op` runs, and the orec is re-loaded; an unchanged
  /// unlocked word at or below the snapshot logs `(guard, version)` in the
  /// read set, which extensions and the commit validate. A foreign lock
  /// aborts (ReadLocked), as the locked read of `guard` would; this
  /// attempt's own lock already holds the state still, so `op` runs and
  /// nothing is logged. A version past the snapshot extends it first. Mutators of the guarded state must hold `guard`'s orec lock
  /// across their mutation and its rollback (an eager CA write does), and a
  /// rollback that wrote in place releases at a fresh version, so an `op`
  /// that overlapped a mutation never finds the word unchanged. Defined
  /// here: it runs once per wrapper read, and an out-of-line call costs
  /// more than its loads.
  template <class F>
  std::invoke_result_t<F&> read_guarded(const VarBase& guard, F&& op) {
    assert(active_);
    chaos_point(ChaosPoint::TxnRead);
    for (int spin = 0; spin < 4; ++spin) {
      const std::uintptr_t w = guard.orec_.load();
      if (Orec::is_locked(w)) {
        if (Orec::owner_of(w)->owner != this) {
          throw ConflictAbort{AbortReason::ReadLocked};
        }
        stats_.count_fastpath_hit();
        return op();
      }
      const Version ver = Orec::version_of(w);
      if (ver > rv_) {
        extend_or_abort();
        continue;
      }
      std::invoke_result_t<F&> result = op();
      // Seqlock read side: `op`'s loads complete before the re-check.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (guard.orec_.load() == w) [[likely]] {
        arena_.reads.push_back({&guard, ver});
        stats_.count_fastpath_hit();
        return result;
      }
    }
    throw ConflictAbort{AbortReason::ReadVersion};
  }

  /// A pessimistic abstract-lock acquisition touches no STM location, yet
  /// the wrapper is about to read state that may postdate a commit which
  /// also moved a guarded read's slot. On EagerAll, whose read set holds
  /// only guarded reads, abort with ValidationFailed unless all of them
  /// still hold. Free when the set is empty; a no-op on the other modes.
  void revalidate_guarded_reads() {
    if (mode_ != Mode::EagerAll || arena_.reads.empty()) [[likely]] return;
    if (!validate_read_set()) throw ConflictAbort{AbortReason::ValidationFailed};
  }

  /// Abort this attempt and retry from the top of the atomically block.
  [[noreturn]] void retry(AbortReason reason = AbortReason::Explicit) {
    throw ConflictAbort{reason};
  }

  // --- Durability (stm/wal.hpp, DESIGN.md §14) ----------------------------
  /// Stage one logical redo record ([stream, payload]) for this attempt.
  /// Wrapper layers log one record per structure operation; the staged
  /// buffer is published to the WAL at the commit point (inside the commit
  /// fence, every write lock held) and discarded with an aborted attempt.
  /// No-op when the Stm has no `StmOptions::durability` — wrappers can log
  /// unconditionally.
  void wal_log(std::uint32_t stream, const void* data, std::size_t n) {
    if (wal_ == nullptr) [[likely]] return;
    wal_log_slow(stream, data, n);
  }
  /// True when commits of this Stm are logged (callers can skip building
  /// record payloads entirely when not).
  bool wal_enabled() const noexcept { return wal_ != nullptr; }
  /// The epoch the WAL assigned to this transaction's records at commit
  /// (0 until then, and 0 forever for non-logging transactions).
  std::uint64_t wal_epoch() const noexcept { return wal_epoch_; }

  // --- Hook registration (see file comment for semantics) -----------------
  void on_abort(Hook fn) { arena_.abort_hooks.push_back(std::move(fn)); }
  void on_commit_locked(Hook fn) {
    arena_.commit_locked_hooks.push_back(std::move(fn));
  }
  /// As above, but additionally holds `fence` across [wv generation ..
  /// commit-locked hooks complete], so snapshot shadow copies never read a
  /// base that is missing a logically-committed, not-yet-replayed commit
  /// (see commit_fence.hpp).
  void on_commit_locked(Hook fn, CommitFence& fence) {
    arena_.commit_locked_hooks.push_back(std::move(fn));
    arena_.commit_fences.push_back(&fence);
  }
  void on_commit(Hook fn) { arena_.commit_hooks.push_back(std::move(fn)); }
  void on_finish(FinishHook fn) {
    arena_.finish_hooks.push_back(std::move(fn));
  }

  // --- Transaction-local storage ------------------------------------------
  /// Per-(transaction-attempt) storage, keyed by an owner address. This is
  /// the analogue of ScalaSTM's TxnLocal: replay logs and shadow copies live
  /// here and are discarded when the attempt ends (either way). Objects are
  /// placed in the arena's bump allocator; their destructors run at attempt
  /// end, in reverse creation order.
  template <class T, class Factory>
  T& local(const void* key, Factory&& make) {
    for (const TxnArena::LocalSlot& s : arena_.locals) {
      if (s.key == key) return *static_cast<T*>(s.obj);
    }
    void* mem = arena_.local_slab.allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Factory>(make)());
    arena_.locals.push_back(
        TxnArena::LocalSlot{key, obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    return *obj;
  }
  bool has_local(const void* key) const {
    for (const TxnArena::LocalSlot& s : arena_.locals) {
      if (s.key == key) return true;
    }
    return false;
  }

  /// This attempt's abstract-lock hold records (pessimistic LAPs append one
  /// per distinct stripe; the vector's capacity is retained across attempts
  /// and transactions). Cleared after the finish hooks run.
  std::vector<TxnArena::LockHold>& lock_holds() noexcept {
    return arena_.lock_holds;
  }

  /// Attempt-scoped bump storage, reset (capacity retained) when the attempt
  /// ends. Replay logs carve their op entries and shadow tables from here so
  /// that the lazy update strategy allocates nothing in steady state. Note
  /// the reset ordering: locals (and thus any log object living in one) are
  /// destroyed *before* the slab is rewound, so log destructors may still
  /// touch memory they allocated here.
  BumpArena& scratch() noexcept { return arena_.local_slab; }

  // --- Chaos (fault-injection) gates --------------------------------------
  // No-ops when StmOptions::chaos is null: one predictable branch, nothing
  // else. Wrapper layers (the LAPs) call these at their own injection
  // points; the STM's internal paths are gated inside txn.cpp.

  /// Decide at `p`: an injected delay is applied internally, an injected
  /// abort throws ConflictAbort{ChaosInjected}.
  void chaos_point(ChaosPoint p) {
    if (chaos_ != nullptr) [[unlikely]] chaos_hit(p);
  }

  /// Like chaos_point, but a forced-timeout draw is returned to the caller
  /// (true), which owns the timeout-recovery path.
  bool chaos_timeout_point(ChaosPoint p) {
    if (chaos_ == nullptr) [[likely]] return false;
    return chaos_timeout_hit(p);
  }

  /// The active fault-injection policy, or nullptr.
  ChaosPolicy* chaos() const noexcept { return chaos_; }

 private:
  friend class Stm;

  explicit Txn(Stm& stm);

  void begin();
  void commit();
  /// Unwind a failed or user-aborted attempt. Safe to call exactly once per
  /// begun attempt.
  void rollback(AbortReason reason) noexcept;

  void read_impl(const VarBase& var, void* dst, std::size_t size);
  void read_validate_impl(const VarBase& var);
  void write_impl(VarBase& var, const void* src, std::size_t size);

  void wal_log_slow(std::uint32_t stream, const void* data, std::size_t n);
  /// Refuse a logging commit up front once the WAL is failed (fail-stop
  /// read-only durability mode — throws WalUnavailable before any lock is
  /// taken).
  void wal_check_available();
  /// Serialize registered-Var writes, publish the staged buffer into this
  /// thread's staging slot and record the assigned epoch. Runs at the
  /// commit point: after the commit-locked hooks, inside the fence bracket,
  /// every write lock held.
  void wal_publish();
  /// Strict-durability ack: block until this commit's epoch is fsync-
  /// covered. Runs after the locks are released and the committer kicked
  /// (end of commit).
  void wal_wait_strict();

  detail::WriteEntry* find_write(const VarBase* var) noexcept;
  detail::WriteEntry& new_write(VarBase* var);
  /// Check that every read-set entry still holds the version observed at
  /// read time (or is locked by this transaction with that displaced
  /// version).
  bool validate_read_set() const noexcept;
  /// Timestamp extension on a too-new read (the eager modes).
  void extend_or_abort();
  void run_commit_locked_hooks() noexcept;
  void enter_commit_fences() noexcept;
  void exit_commit_fences() noexcept;
  /// Run post-outcome hooks (on_commit on the commit path, then on_finish),
  /// verify teardown, and reset the arena. Run-all-then-rethrow: a throwing
  /// hook never starves the hooks after it (a LAP's stripe-release hook may
  /// sit anywhere in the list); the first exception propagates afterwards
  /// when `rethrow`, and is dropped on the (noexcept) abort path.
  void finish_attempt(Outcome outcome, bool rethrow);
  /// Chaos-mode leak check: a finished attempt must hold zero orecs, zero
  /// abstract-lock stripes and zero reader marks. Violations are filed with
  /// the policy (ChaosPolicy::report_leak) so the suite can assert on them.
  void verify_teardown() noexcept;
  void chaos_hit(ChaosPoint p);
  bool chaos_timeout_hit(ChaosPoint p);
  void chaos_delay_only(ChaosPoint p) noexcept;
  void mark_reader(VarBase& var);
  void clear_reader_marks() noexcept;
  void release_locks(Version version) noexcept;
  void reset_attempt_state() noexcept;

  /// One bit of a 64-bit pointer-hash summary of the write set; a clear bit
  /// proves the var was never written by this transaction.
  static std::uint64_t bloom_bit(const VarBase* var) noexcept {
    auto x = reinterpret_cast<std::uintptr_t>(var) >> 3;
    x *= 0x9E3779B97F4A7C15ULL;
    return std::uint64_t{1} << (x >> 58);
  }

  /// Write sets at most this large are probed by linear scan.
  static constexpr std::size_t kSmallWriteSet = 8;

  Stm& stm_;
  TxnArena& arena_;
  ChaosPolicy* chaos_;  // from StmOptions; nullptr = injection disabled
  Mode mode_;
  unsigned slot_;
  Stats::Counters stats_;  // initialized from slot_; keep declared after it
  Version rv_ = 0;
  unsigned attempt_ = 0;
  unsigned eligible_attempts_ = 0;
  // Shared side of the fallback gate, taken by commit() and held until the
  // attempt is torn down (reset_attempt_state) — on an aborted commit that
  // is after rollback() has released the orec locks, so the exclusive
  // (gated) attempt that follows never meets a lock left by a loser.
  std::shared_lock<std::shared_mutex> gate_guard_;
  bool active_ = false;
  bool snapshot_frozen_ = false;
  bool gate_exempt_ = false;
  bool write_table_on_ = false;  // flat-table tier engaged this attempt
  std::uint64_t write_bloom_ = 0;
  // Durability state (dormant — wal_ == nullptr — unless the Stm was built
  // with StmOptions::durability; commits then cost one never-taken branch).
  Wal* wal_ = nullptr;
  std::uint64_t wal_epoch_ = 0;  // epoch assigned at publish (this attempt)
};

// Var<T> accessor definitions (declared in var.hpp).
template <class T>
  requires std::is_trivially_copyable_v<T>
T Var<T>::read(Txn& tx) const {
  return tx.read(*this);
}

template <class T>
  requires std::is_trivially_copyable_v<T>
void Var<T>::write(Txn& tx, const T& v) {
  tx.write(*this, v);
}

}  // namespace proust::stm
