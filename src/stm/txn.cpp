#include "stm/txn.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <shared_mutex>
#include <stdexcept>

#include "common/ebr.hpp"
#include "stm/chaos.hpp"
#include "stm/commit_fence.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"

namespace proust::stm {

namespace {
thread_local Txn* tls_current = nullptr;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Txn* Txn::current() noexcept { return tls_current; }

TxnArena& TxnArena::of_thread() {
  static thread_local TxnArena arena;
  return arena;
}

Txn::Txn(Stm& stm)
    : stm_(stm),
      arena_(TxnArena::of_thread()),
      chaos_(stm.options().chaos),
      mode_(stm.mode()),
      slot_(ThreadRegistry::slot()),
      stats_(stm.stats().counters(slot_)) {
  assert(tls_current == nullptr && "a transaction is already running here");
  assert(arena_.writes.empty() && arena_.locals.empty() &&
         "arena not reset by the previous transaction");
  assert(ebr::debug_guard_depth() == 0 &&
         "EBR guard leaked into a transaction");
  wal_ = stm.options().durability;
  tls_current = this;
}

Txn::~Txn() {
  assert(!active_ && "transaction destroyed while active");
  tls_current = nullptr;
}

void Txn::begin() {
  assert(!active_);
  if (mode_ == Mode::EagerAll && slot_ >= ThreadRegistry::kMaxVisibleSlots) {
    throw std::runtime_error(
        "Mode::EagerAll supports at most 64 concurrent threads "
        "(visible-reader bitmap width)");
  }
  rv_ = stm_.clock_now();
  ++attempt_;
  active_ = true;
  snapshot_frozen_ = false;
  wal_epoch_ = 0;
  stats_.count_start();
}

std::uint64_t Txn::fresh_stamp() noexcept { return stm_.next_stamp(slot_); }

detail::WriteEntry* Txn::find_write(const VarBase* var) noexcept {
  if ((write_bloom_ & bloom_bit(var)) == 0) return nullptr;
  if (write_table_on_) {
    return static_cast<detail::WriteEntry*>(arena_.write_table.find(var));
  }
  const std::size_t n = arena_.writes.size();
  for (std::size_t i = 0; i < n; ++i) {
    detail::WriteEntry& e = arena_.writes[i];
    if (e.var == var) return &e;
  }
  return nullptr;
}

detail::WriteEntry& Txn::new_write(VarBase* var) {
  detail::WriteEntry& e = arena_.writes.acquire();
  // Pool slots are recycled, not destroyed: re-initialize every field the
  // protocols read (the ValBufs keep their capacity on purpose).
  e.var = var;
  e.lock.owner = this;
  e.lock.old_version = 0;
  e.locked = false;
  e.has_redo = false;
  e.wrote = false;
  write_bloom_ |= bloom_bit(var);
  if (write_table_on_) {
    arena_.write_table.insert(var, &e);
  } else if (arena_.writes.size() > kSmallWriteSet) {
    // Outgrew the linear-scan window: index everything seen so far.
    for (std::size_t i = 0; i < arena_.writes.size(); ++i) {
      arena_.write_table.insert(arena_.writes[i].var, &arena_.writes[i]);
    }
    write_table_on_ = true;
  }
  return e;
}

void Txn::mark_reader(VarBase& var) {
  const std::uint64_t mask = std::uint64_t{1} << slot_;
  const std::uint64_t old =
      var.readers_.fetch_or(mask, std::memory_order_acq_rel);
  if ((old & mask) == 0) arena_.reader_marks.push_back(&var);
}

void Txn::clear_reader_marks() noexcept {
  const std::uint64_t mask = ~(std::uint64_t{1} << slot_);
  for (VarBase* var : arena_.reader_marks) {
    var->readers_.fetch_and(mask, std::memory_order_acq_rel);
  }
  arena_.reader_marks.clear();
}

void Txn::read_impl(const VarBase& var, void* dst, std::size_t size) {
  assert(active_);
  assert(size == var.size_);
  stats_.count_read();
  chaos_point(ChaosPoint::TxnRead);

  if (detail::WriteEntry* e = find_write(&var)) {
    if (mode_ == Mode::Lazy) {
      if (e->has_redo) {
        std::memcpy(dst, e->redo.data(size), size);
        return;
      }
    } else {
      // Eager modes: the in-place value is this transaction's own write.
      std::memcpy(dst, var.data_, size);
      return;
    }
  }

  if (mode_ == Mode::EagerAll) mark_reader(const_cast<VarBase&>(var));

  for (int spin = 0; spin < 4; ++spin) {
    const std::uintptr_t w = var.orec_.load();
    if (Orec::is_locked(w)) {
      if (Orec::owner_of(w)->owner == this) {
        std::memcpy(dst, var.data_, size);
        return;
      }
      throw ConflictAbort{AbortReason::ReadLocked};  // requester aborts
    }
    std::memcpy(dst, var.data_, size);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (var.orec_.load() != w) continue;  // torn by a concurrent committer

    const Version ver = Orec::version_of(w);
    if (ver > rv_) {
      if (mode_ == Mode::Lazy) throw ConflictAbort{AbortReason::ReadVersion};
      // Timestamp extension (TinySTM-style). In EagerAll the read set
      // holds only guarded reads (visible readers need no entries), so
      // with none of those this merely slides the snapshot forward.
      extend_or_abort();
      // The copied value is stale evidence: the var may have been
      // recommitted between the copy and the extension, and a compare
      // against the pre-extension `ver` cannot tell (an equal version is
      // not proof of an unchanged value while a committer races us).
      // Restart so word, value and version are re-captured under the new
      // snapshot.
      continue;
    }
    if (mode_ != Mode::EagerAll) arena_.reads.push_back({&var, ver});
    return;
  }
  throw ConflictAbort{AbortReason::ReadVersion};
}

void Txn::read_validate_impl(const VarBase& var) {
  assert(active_);
  stats_.count_read();
  chaos_point(ChaosPoint::TxnRead);

  if (mode_ == Mode::EagerAll) {
    // Visible readers: publish the bit; a conflicting committer would have
    // had to abort, so no version bookkeeping is needed for reads of the
    // *base*. With a frozen snapshot (lazy wrappers), additionally require
    // the location to be unchanged since the pinned read version: the
    // shadow copy, unlike an in-place read, does not track current state.
    // A version past the snapshot may belong to a commit that also moved
    // a guarded read's slot, so with any logged, extend (which validates
    // them) before the caller reads what the bit now protects.
    mark_reader(const_cast<VarBase&>(var));
    const std::uintptr_t w = var.orec_.load();
    if (Orec::is_locked(w)) {
      const LockRecord* rec = Orec::owner_of(w);
      if (rec->owner != this) throw ConflictAbort{AbortReason::ReadLocked};
      if (snapshot_frozen_ && rec->old_version > rv_) {
        throw ConflictAbort{AbortReason::ReadVersion};
      }
    } else if (Orec::version_of(w) > rv_) {
      if (snapshot_frozen_) throw ConflictAbort{AbortReason::ReadVersion};
      if (!arena_.reads.empty()) extend_or_abort();
    }
    return;
  }

  for (int spin = 0; spin < 4; ++spin) {
    const std::uintptr_t w = var.orec_.load();
    Version ver;
    if (Orec::is_locked(w)) {
      const LockRecord* rec = Orec::owner_of(w);
      if (rec->owner != this) throw ConflictAbort{AbortReason::ReadLocked};
      ver = rec->old_version;  // committed version displaced by our own lock
    } else {
      ver = Orec::version_of(w);
    }
    if (ver > rv_) {
      if (mode_ == Mode::Lazy) throw ConflictAbort{AbortReason::ReadVersion};
      extend_or_abort();
      // Re-load the orec before recording the entry: the var may have been
      // recommitted during the extension, and the read set must hold the
      // post-extension state, not the version that triggered it.
      continue;
    }
    arena_.reads.push_back({&var, ver});
    return;
  }
  throw ConflictAbort{AbortReason::ReadVersion};
}

void Txn::write_impl(VarBase& var, const void* src, std::size_t size) {
  assert(active_);
  assert(size == var.size_);
  stats_.count_write();

  if (detail::WriteEntry* e = find_write(&var)) {
    if (mode_ == Mode::Lazy) {
      std::memcpy(e->redo.ensure(size), src, size);
      e->has_redo = true;
    } else {
      std::memcpy(var.data_, src, size);  // lock already held by us
    }
    return;
  }

  detail::WriteEntry& e = new_write(&var);
  if (mode_ == Mode::Lazy) {
    std::memcpy(e.redo.ensure(size), src, size);
    e.has_redo = true;
    return;
  }

  // Eager modes: encounter-time lock acquisition, requester-aborts
  // (abort-on-busy keeps the protocol deadlock-free).
  chaos_point(ChaosPoint::CommitLock);
  if (!var.orec_.try_lock(&e.lock)) {
    throw ConflictAbort{AbortReason::WriteLocked};
  }
  e.locked = true;
  if (mode_ == Mode::EagerAll) {
    const std::uint64_t mask = std::uint64_t{1} << slot_;
    if ((var.readers_.load(std::memory_order_acquire) & ~mask) != 0) {
      // Foreign visible readers: eager read-write conflict, yield to them.
      throw ConflictAbort{AbortReason::VisibleReader};
    }
  }
  std::memcpy(e.undo.ensure(size), var.data_, size);
  e.wrote = true;
  std::memcpy(var.data_, src, size);
}

bool Txn::validate_read_set() const noexcept {
  for (const auto& r : arena_.reads) {
    const std::uintptr_t w = r.var->orec_.load();
    if (Orec::is_locked(w)) {
      const LockRecord* rec = Orec::owner_of(w);
      if (rec->owner != this || rec->old_version != r.version) return false;
    } else if (Orec::version_of(w) != r.version) {
      return false;
    }
  }
  return true;
}

void Txn::extend_or_abort() {
  chaos_point(ChaosPoint::TxnValidate);
  if (snapshot_frozen_) {
    // A pinned shadow copy forbids sliding the snapshot forward.
    throw ConflictAbort{AbortReason::ReadVersion};
  }
  // Every released version is at most the clock (a committer ticks the
  // clock before it releases), so `now` covers the version that triggered
  // the extension.
  const Version now = stm_.clock_now();
  if (!validate_read_set()) {
    throw ConflictAbort{AbortReason::ValidationFailed};
  }
  rv_ = now;
  stats_.count_extension();
}

void Txn::release_locks(Version version) noexcept {
  const std::size_t n = arena_.writes.size();
  for (std::size_t i = 0; i < n; ++i) {
    detail::WriteEntry& e = arena_.writes[i];
    if (e.locked) {
      e.var->orec_.unlock(version);
      e.locked = false;
    }
  }
}

void Txn::commit() {
  assert(active_);
  // Wrapper reads pin a container's EBR domain only for the base
  // traversal itself; a pin that survives to commit would stall every
  // domain the thread touches (common/ebr.hpp debug_guard_depth).
  assert(ebr::debug_guard_depth() == 0 &&
         "EBR guard held across a transaction boundary");

  // Fail-stop durability: once the log has failed, refuse any commit that
  // would produce redo records — before locks are taken, so the unwind is
  // the ordinary user-exception path.
  if (wal_ != nullptr) [[unlikely]] wal_check_available();

  // Fallback gate (when enabled): ordinary commits take the shared side
  // with try-lock semantics; blocking here while holding encounter-time
  // locks could deadlock against the exclusive (fallback) holder. The guard
  // is a member, released only when the attempt is torn down: a commit
  // that fails past this point still holds its orec locks until rollback().
  if (stm_.gate_enabled() && !gate_exempt_) {
    gate_guard_ = std::shared_lock<std::shared_mutex>(stm_.gate(),
                                                      std::try_to_lock);
    if (!gate_guard_.owns_lock()) {
      throw ConflictAbort{AbortReason::FallbackGate};
    }
  }

  // Read-only (and hook-free) fast path: reads were validated incrementally
  // against rv, so the attempt serializes there (TL2) and needs no clock
  // advance. An eager pessimistic *mutator* also lands here (its writes went
  // through abort hooks + abstract locks, not the STM write set); every
  // acquisition revalidated the guarded reads before it.
  // Staged WAL records force the full path: the publish (epoch assignment)
  // must happen inside the commit-fence bracket below.
  if (arena_.writes.empty() && arena_.commit_locked_hooks.empty() &&
      arena_.wal_buf.empty()) {
    clear_reader_marks();
    active_ = false;
    stats_.count_commit();
    finish_attempt(Outcome::Committed, /*rethrow=*/true);
    return;
  }

  const std::size_t nwrites = arena_.writes.size();
  if (mode_ == Mode::Lazy) {
    // Commit-time locking, arbitrary order, abort-on-busy (deadlock-free).
    for (std::size_t i = 0; i < nwrites; ++i) {
      detail::WriteEntry& e = arena_.writes[i];
      // Injected aborts mid-loop leave a partially locked write set; the
      // rollback path must release exactly the acquired prefix.
      chaos_point(ChaosPoint::CommitLock);
      if (!e.var->orec_.try_lock(&e.lock)) {
        throw ConflictAbort{AbortReason::WriteLocked};
      }
      e.locked = true;
    }
  }

  // Every write lock is held from here on, so the clock tick in generate_wv
  // postdates them: `rv_ + 1 == wv` proves no writer committed between our
  // snapshot and our locks, and the read set need not be revalidated.
  // Registered commit fences must be held from *before* the clock advance
  // until the replay hooks finish: the moment generate_wv ticks the clock,
  // a fresh transaction's rv covers this commit, and a snapshot shadow copy
  // taken before the replay lands would silently miss it (commit_fence.hpp).
  enter_commit_fences();
  // Logging commits additionally bracket the Wal's checkpoint fence: the
  // checkpointer's consistent cut pairs published_epoch() with var values,
  // which is only exact when no commit sits between wv generation (epoch
  // assignment happens in wal_publish, under this bracket) and write-back
  // completion. Same contract as registered commit fences, just owned by
  // the log instead of a wrapper (stm/checkpoint.hpp).
  const bool wal_fenced =
      wal_ != nullptr && (!arena_.wal_buf.empty() ||
                          (wal_->has_vars() && !arena_.writes.empty()));
  if (wal_fenced) [[unlikely]] wal_->checkpoint_fence().enter();
  Version wv;
  try {
    wv = stm_.generate_wv();
    // Last legal injection window: every write lock is held and wv exists,
    // but nothing has been applied — an abort here releases the locks
    // rollback's way (displaced versions, or a fresh one for vars written
    // in place). Delays widen the all-locks-held window. (Past the
    // commit-locked hooks there is no aborting, only delay — see
    // run_commit_locked_hooks.)
    chaos_point(ChaosPoint::WvPublish);
    const bool need_validation = !arena_.reads.empty() && rv_ + 1 != wv;
    if (need_validation) chaos_point(ChaosPoint::TxnValidate);
    if (need_validation && !validate_read_set()) {
      throw ConflictAbort{AbortReason::ValidationFailed};
    }
  } catch (...) {
    if (wal_fenced) [[unlikely]] wal_->checkpoint_fence().exit();
    exit_commit_fences();
    throw;
  }

  // The commit point. Replay logs are applied here, behind the STM's own
  // locks (§4: "applied atomically, behind the STM's native locking
  // mechanisms"). These hooks must not throw.
  run_commit_locked_hooks();
  // Publish the redo records while every write lock (and commit fence) is
  // still held: conflicting commits are serialized across this point, so
  // the epochs the WAL hands out linearize conflicting transactions and
  // recovery can replay strictly by epoch. The publish writes one shared
  // word (the epoch claim) and this thread's staging slot; the committer
  // is kicked after release, at the end of commit.
  if (wal_ != nullptr) [[unlikely]] wal_publish();
  exit_commit_fences();

  if (mode_ == Mode::Lazy) {
    for (std::size_t i = 0; i < nwrites; ++i) {
      detail::WriteEntry& e = arena_.writes[i];
      if (e.has_redo) {
        std::memcpy(e.var->data_, e.redo.data(e.var->size_), e.var->size_);
      }
    }
  }
  release_locks(wv);
  // The checkpoint-fence bracket ends only after write-back *and* lock
  // release: a cut that observed the fence quiescent must never see a
  // half-written (still-locked) var paired with this commit's epoch.
  if (wal_fenced) [[unlikely]] wal_->checkpoint_fence().exit();
  clear_reader_marks();
  active_ = false;
  stats_.count_commit();
  finish_attempt(Outcome::Committed, /*rethrow=*/true);
  // Kick the group committer and take the strict durability ack *after* the
  // in-memory commit is fully torn down (locks released, hooks run) —
  // neither may extend any conflict window. On a failed log the strict wait
  // throws WalUnavailable out of an already-committed atomically call: the
  // in-memory effect stands, the durability guarantee does not (DESIGN.md
  // §14 spells out this contract).
  if (wal_epoch_ != 0) [[unlikely]] {
    wal_->kick(wal_epoch_);
    wal_wait_strict();
  }
}

void Txn::enter_commit_fences() noexcept {
  for (CommitFence* f : arena_.commit_fences) f->enter();
}

void Txn::exit_commit_fences() noexcept {
  for (CommitFence* f : arena_.commit_fences) f->exit();
}

void Txn::run_commit_locked_hooks() noexcept {
  if (chaos_ != nullptr && !arena_.commit_locked_hooks.empty()) [[unlikely]] {
    // Past the commit point: replay application may only be delayed, never
    // aborted (the hooks themselves must not throw either).
    chaos_delay_only(ChaosPoint::ReplayApply);
  }
  for (auto& h : arena_.commit_locked_hooks) h();
}

void Txn::wal_log_slow(std::uint32_t stream, const void* data, std::size_t n) {
  assert(active_);
  Wal::stage_record(arena_.wal_buf, stream, data, n);
  ++arena_.wal_records;
}

void Txn::wal_check_available() {
  if (!wal_->failed()) [[likely]] return;
  // The write check is conservative (any write while vars are registered
  // counts, even to an unregistered var): refusing a commit that would not
  // have logged is safe; the converse would let acked state outrun the
  // durable prefix.
  const bool logging = !arena_.wal_buf.empty() ||
                       (wal_->has_vars() && !arena_.writes.empty());
  // FailStop widens the refusal to *every* mutating commit — writes,
  // replay hooks, or staged records — so in-memory state freezes at the
  // failure point; read-only transactions still commit under both modes.
  const bool mutating = !arena_.writes.empty() ||
                        !arena_.commit_locked_hooks.empty() ||
                        !arena_.wal_buf.empty();
  if (logging ||
      (stm_.options().wal_fail_mode == WalFailMode::FailStop && mutating)) {
    stats_.count_wal_refused();
    throw WalUnavailable("stm wal failed (" + wal_->options().dir +
                         "): durable commits are refused");
  }
}

void Txn::wal_publish() {
  // Serialize registered raw-var writes from the write set. At this point
  // the write set is final and validated: Lazy redo buffers hold the new
  // values, eager writes already landed in place.
  if (wal_->has_vars() && !arena_.writes.empty()) [[unlikely]] {
    const std::size_t n = arena_.writes.size();
    for (std::size_t i = 0; i < n; ++i) {
      detail::WriteEntry& e = arena_.writes[i];
      const void* value;
      if (mode_ == Mode::Lazy) {
        if (!e.has_redo) continue;
        value = e.redo.data(e.var->size_);
      } else {
        if (!e.wrote) continue;
        value = e.var->data_;
      }
      std::uint64_t id;
      if (!wal_->var_id(e.var, id)) continue;
      Wal::stage_var_record(arena_.wal_buf, id, value, e.var->size_);
      ++arena_.wal_records;
    }
  }
  if (arena_.wal_buf.empty()) return;
  wal_epoch_ = wal_->publish(slot_, arena_.wal_buf.data(),
                             arena_.wal_buf.size(), arena_.wal_records);
  stats_.count_wal_publish(arena_.wal_records, arena_.wal_buf.size());
}

void Txn::wal_wait_strict() {
  if (wal_->options().durability != WalDurability::Strict) return;
  const std::uint64_t t0 = now_ns();
  wal_->wait_durable(wal_epoch_);
  stats_.count_wal_wait_ns(now_ns() - t0);
}

void Txn::rollback(AbortReason reason) noexcept {
  if (!active_) return;  // commit already completed; nothing to unwind
  stats_.count_abort(reason);
  if (reason != AbortReason::ChaosInjected) ++eligible_attempts_;
  // Proust inverse operations: reverse order, while this transaction's STM
  // locks (covering its conflict-abstraction locations) are still held. A
  // throwing inverse cannot be propagated from this noexcept unwind path;
  // swallow it and keep running the earlier inverses — skipping them would
  // leave the abstract state partially rolled back, which is strictly worse.
  for (auto it = arena_.abort_hooks.rbegin(); it != arena_.abort_hooks.rend();
       ++it) {
    try {
      (*it)();
    } catch (...) {
    }
  }

  // Undo the in-place writes and release. A var written in place is
  // released at a fresh version, one clock tick per aborting attempt: an
  // invisible reader that copied our value between the lock and the undo
  // (a raw Var read, a checkpoint copy, a guarded read's base traversal)
  // re-checks the orec, and the displaced word would tell it nothing had
  // changed. A lock with no write (Lazy's commit-time locks, an eager
  // writer that yielded before writing) keeps the displaced version.
  Version fresh = 0;
  for (std::size_t i = arena_.writes.size(); i-- > 0;) {
    detail::WriteEntry& e = arena_.writes[i];
    Version release_at = e.lock.old_version;
    if (e.wrote) {
      std::memcpy(e.var->data_, e.undo.data(e.var->size_), e.var->size_);
      e.wrote = false;
      if (fresh == 0) fresh = stm_.generate_wv();
      release_at = fresh;
    }
    if (e.locked) {
      e.var->orec_.unlock(release_at);
      e.locked = false;
    }
  }
  clear_reader_marks();
  active_ = false;
  finish_attempt(Outcome::Aborted, /*rethrow=*/false);
}

void Txn::finish_attempt(Outcome outcome, bool rethrow) {
  // Run-all-then-rethrow: every hook runs even if an earlier one throws.
  // A LAP's stripe-release finish hook can sit anywhere in the list, so
  // stopping at the first exception would leak abstract locks held by
  // hooks registered after the thrower.
  std::exception_ptr first;
  if (outcome == Outcome::Committed) {
    for (auto& h : arena_.commit_hooks) {
      try {
        h();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  }
  for (auto& h : arena_.finish_hooks) {
    try {
      h(outcome);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (chaos_ != nullptr) [[unlikely]] verify_teardown();
  reset_attempt_state();
  if (rethrow && first) std::rethrow_exception(first);
}

void Txn::verify_teardown() noexcept {
  const std::size_t nwrites = arena_.writes.size();
  for (std::size_t i = 0; i < nwrites; ++i) {
    if (arena_.writes[i].locked) {
      chaos_->report_leak("orec still locked after attempt finished");
      break;
    }
  }
  for (const TxnArena::LockHold& h : arena_.lock_holds) {
    // release_all zeroes the hold counts; a nonzero count here means some
    // LAP's finish hook never ran (or ran and failed to release).
    if (h.readers != 0 || h.writers != 0) {
      chaos_->report_leak("abstract-lock stripe still held after finish hooks");
      break;
    }
  }
  if (!arena_.reader_marks.empty()) {
    chaos_->report_leak("visible-reader marks not cleared");
  }
}

void Txn::chaos_hit(ChaosPoint p) {
  const ChaosAction a = chaos_->decide(p);
  if (a == ChaosAction::None) [[likely]] return;
  stats_.count_injected(p);
  if (a == ChaosAction::Delay) {
    chaos_->inject_delay();
    return;
  }
  // Abort — and Timeout, which has no meaning at a plain point — become a
  // spurious conflict, exercising the same unwind as a real one.
  throw ConflictAbort{AbortReason::ChaosInjected};
}

bool Txn::chaos_timeout_hit(ChaosPoint p) {
  const ChaosAction a = chaos_->decide(p);
  if (a == ChaosAction::None) [[likely]] return false;
  stats_.count_injected(p);
  switch (a) {
    case ChaosAction::Delay:
      chaos_->inject_delay();
      return false;
    case ChaosAction::Timeout:
      return true;  // caller owns the timeout-recovery path
    default:
      throw ConflictAbort{AbortReason::ChaosInjected};
  }
}

void Txn::chaos_delay_only(ChaosPoint p) noexcept {
  // Every counted decision must have an effect: non-Delay draws are coerced
  // to a delay at points where aborting is no longer legal.
  if (chaos_->decide(p) == ChaosAction::None) return;
  stats_.count_injected(p);
  chaos_->inject_delay();
}

void Txn::reset_attempt_state() noexcept {
  if (gate_guard_.owns_lock()) gate_guard_.unlock();
  arena_.reset_attempt();
  write_bloom_ = 0;
  write_table_on_ = false;
}

}  // namespace proust::stm
