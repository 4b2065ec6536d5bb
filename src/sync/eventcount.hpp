// A minimal eventcount over the futex primitive (sync/futex.hpp): waiters
// register, snapshot a generation word, re-check their predicate, and park
// until the word moves; notifiers bump the word and wake the parked ones.
//
// Lossless by a seq_cst handshake. A waiter registers (waiters_ RMW) and
// then reads the generation before re-checking its predicate; a notifier
// publishes its predicate change, bumps the generation (seq_cst RMW) and
// only then reads the waiter count. Either the notifier sees the waiter
// and wakes it, or the waiter's re-check sees the published change. A bump
// that lands between the snapshot and the park changes the word, so the
// futex call returns at once instead of sleeping through the event. A
// notify with nobody registered costs the bump and one load, no syscall.
//
// The WAL's group committer parks on one of these between batches (with a
// deadline, so fsync_interval_us is honored even when no producer ever
// notifies), and strict-durability committers park on another until the
// durable epoch covers them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "sync/futex.hpp"

namespace proust::sync {

class EventCount {
 public:
  /// Park until a notify_all, the deadline, or a spurious wakeup — unless
  /// `ready()` already holds once this waiter is registered (the re-check
  /// that makes the protocol lossless). Callers loop on their predicate.
  template <class Ready>
  void wait_until(Ready&& ready,
                  std::chrono::steady_clock::time_point deadline) {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint32_t ticket = gen_.load(std::memory_order_seq_cst);
    if (!ready()) futex_wait_until(gen_, ticket, deadline);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Publish an event: bump the generation, then wake every parked waiter
  /// (skipping the syscall when none is registered). The caller's
  /// predicate change must be sequenced before this call.
  void notify_all() noexcept {
    gen_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) futex_wake_all(gen_);
  }

 private:
  std::atomic<std::uint32_t> gen_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace proust::sync
