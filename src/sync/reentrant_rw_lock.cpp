#include "sync/reentrant_rw_lock.hpp"

#include "sync/chaos_hook.hpp"
#include "sync/futex.hpp"

namespace proust::sync {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Bounded spin before parking. Abstract-lock critical sections are short
// (one base-object operation), so a brief spin usually rides out the owner;
// anything longer and the futex path takes over.
constexpr int kSpinBound = 64;

}  // namespace

bool ReentrantRwLock::try_join(bool in_read, bool in_write,
                               bool write) noexcept {
  std::uint64_t s = state_.load(std::memory_order_relaxed);
  while (admissible(s, in_read, in_write, write)) {
    const std::uint64_t next = s + (write ? kWriterOne : kReaderOne);
    if (state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool ReentrantRwLock::try_acquire(std::uint32_t& my_readers,
                                  std::uint32_t& my_writers, bool write,
                                  std::chrono::nanoseconds timeout) {
  std::uint32_t& mine = write ? my_writers : my_readers;
  if (mine > 0) {
    // Re-entrant re-acquire of a mode already held: group membership is
    // unchanged, so this is a pure owner-local increment. Always admissible:
    // holding the mode means the excluded groups are already drained, an
    // invariant no concurrent acquire can break while we are a member.
    ++mine;
    return true;
  }
  const bool in_read = my_readers > 0;
  const bool in_write = my_writers > 0;
  if (ChaosLockHook* hook = chaos_lock_hook(); hook != nullptr) [[unlikely]] {
    // Injected delay before the join CAS widens the window between the
    // admissibility check and the RMW, manufacturing CAS races on demand.
    hook->on_lock_transition(LockTransition::kJoinCas);
  }
  if (try_join(in_read, in_write, write) ||
      join_slow(in_read, in_write, write, timeout)) {
    mine = 1;
    return true;
  }
  return false;
}

bool ReentrantRwLock::join_slow(bool in_read, bool in_write, bool write,
                                std::chrono::nanoseconds timeout) noexcept {
  if (ChaosLockHook* hook = chaos_lock_hook(); hook != nullptr) [[unlikely]] {
    // A forced timeout here fails the contended acquisition immediately —
    // exactly the state a real deadlock would end in after the full wait —
    // so the caller's timeout-recovery path runs without burning wall time.
    if (hook->on_lock_transition(LockTransition::kSlowPath)) return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (int i = 0; i < kSpinBound; ++i) {
    cpu_relax();
    if (try_join(in_read, in_write, write)) return true;
  }
  // Park. Registering the waiter with an RMW *on the state word itself* is
  // what makes the sleep lossless: fetch_add returns the latest value in
  // modification order, so either it already reflects the release we are
  // waiting for (and we join below without sleeping), or any later release
  // is ordered after our registration, sees the waiter count, and bumps
  // wake_seq_ before waking (see release_all).
  std::uint64_t s =
      state_.fetch_add(kWaiterOne, std::memory_order_acq_rel) + kWaiterOne;
  bool joined = false;
  for (;;) {
    if (admissible(s, in_read, in_write, write)) {
      const std::uint64_t next = s + (write ? kWriterOne : kReaderOne);
      if (state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        joined = true;
        break;
      }
      continue;  // failed CAS reloaded s
    }
    const std::uint32_t seq = wake_seq_.load(std::memory_order_acquire);
    // Re-check after capturing the eventcount: a release between this load
    // and the futex call bumps wake_seq_, so the wait returns immediately.
    s = state_.load(std::memory_order_acquire);
    if (admissible(s, in_read, in_write, write)) continue;
    if (std::chrono::steady_clock::now() >= deadline) break;
    if (ChaosLockHook* hook = chaos_lock_hook(); hook != nullptr) [[unlikely]] {
      hook->on_lock_transition(LockTransition::kPark);
    }
    futex_wait_until(wake_seq_, seq, deadline);
    s = state_.load(std::memory_order_acquire);
  }
  state_.fetch_sub(kWaiterOne, std::memory_order_relaxed);
  // Timed out while blocked: grant anyway if the lock became admissible at
  // the deadline (the condvar implementation behaved this way, and the
  // pessimistic LAP's tests pin it).
  if (!joined) joined = try_join(in_read, in_write, write);
  return joined;
}

void ReentrantRwLock::release_all(std::uint32_t& my_readers,
                                  std::uint32_t& my_writers) {
  std::uint64_t dec = 0;
  if (my_readers > 0) dec += kReaderOne;
  if (my_writers > 0) dec += kWriterOne;
  my_readers = 0;
  my_writers = 0;
  if (dec == 0) return;
  const std::uint64_t now = state_.fetch_sub(dec, std::memory_order_acq_rel) - dec;
  if (((now >> kWaiterShift) & kCountMask) != 0) {
    // Someone is parked or committing to park: publish the change on the
    // eventcount and wake everyone. Wake-all is deliberate — a release can
    // unblock the reader group, the writer group (kGroup), or a parked
    // upgrader, and filtering precisely is not worth extra shared state at
    // stripe-level fan-out.
    wake_seq_.fetch_add(1, std::memory_order_release);
    futex_wake_all(wake_seq_);
  }
}

}  // namespace proust::sync
