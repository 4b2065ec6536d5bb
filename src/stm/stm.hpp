// The STM runtime: a global version clock, a block-allocating stamp source,
// a conflict detection mode and statistics, plus the `atomically` retry
// loop.
//
// Multiple independent Stm instances may coexist (tests do this), but a
// given transaction touches vars through exactly one Stm, and nested
// `atomically` calls on the same thread must use the same Stm (flat
// nesting).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/backoff.hpp"
#include "stm/commit_fence.hpp"
#include "stm/fwd.hpp"
#include "stm/options.hpp"
#include "stm/stats.hpp"
#include "stm/thread_registry.hpp"
#include "stm/txn.hpp"

namespace proust::stm {

class Stm {
 public:
  explicit Stm(Mode mode = Mode::Lazy, StmOptions options = {})
      : mode_(mode), options_(options) {}
  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  Mode mode() const noexcept { return mode_; }
  const StmOptions& options() const noexcept { return options_; }
  Stats& stats() noexcept { return stats_; }

  /// In-flight irrevocable-fallback hold, for the watchdog: entry time in
  /// steady-clock nanoseconds (0 = gate not held) and the holder's slot.
  std::uint64_t gate_entered_ns() const noexcept {
    return gate_entered_ns_.load(std::memory_order_acquire);
  }
  unsigned gate_holder() const noexcept {
    return gate_holder_.load(std::memory_order_relaxed);
  }

  Version clock_now() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  /// Produce this commit's write version: one `fetch_add` on the shared
  /// clock (TL2's GV1). An aborting attempt that wrote in place draws one
  /// too and releases those vars at it (Txn::rollback). Must be called *after*
  /// the transaction holds all of its write locks, which gives two
  /// invariants:
  ///  - `wv` postdates lock acquisition: a reader whose `rv >= wv` began
  ///    after this committer's locks were visible, so it can never have
  ///    copied a pre-commit value of ours;
  ///  - a committed orec's version strictly increases (the clock is ticked
  ///    past every released version before anyone can displace it), so the
  ///    exact-version compares in read-set validation can never mistake two
  ///    different committed states of one var for each other.
  Version generate_wv() noexcept {
    return clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// A process-unique stamp for `slot` (the calling thread's registry slot).
  /// Threads draw blocks of kStampBlock stamps with a single shared
  /// `fetch_add` and then hand them out from a slot-private cell, so the
  /// per-stamp cost is one private increment. Stamps are globally unique
  /// and strictly increasing per slot — a recycled slot resumes the previous
  /// holder's partially-used block, never reissuing a value.
  std::uint64_t next_stamp(unsigned slot) noexcept {
    StampCell& c = stamp_cells_[slot];
    if (c.next == c.end) {
      c.next = stamps_.fetch_add(kStampBlock, std::memory_order_relaxed);
      c.end = c.next + kStampBlock;
    }
    return ++c.next;
  }

  /// Run `body(Txn&)` atomically, retrying on conflict after the configured
  /// inter-attempt pause (StmOptions::cm_policy). Re-entrant calls on the
  /// same thread join the enclosing transaction (flat nesting). User
  /// exceptions abort the transaction (inverses/finish hooks run) and
  /// propagate.
  template <class F>
  auto atomically(F&& body) -> std::invoke_result_t<F&, Txn&> {
    using R = std::invoke_result_t<F&, Txn&>;
    if (Txn* cur = Txn::current()) {
      if (&cur->stm() != this) {
        throw std::logic_error(
            "nested atomically on a different Stm instance");
      }
      return body(*cur);
    }
    Txn tx(*this);
    // The attempts histogram counts every call, including one that ends in
    // a propagating user exception.
    struct CallGuard {
      Stm* stm;
      Txn* tx;
      ~CallGuard() {
        stm->stats_.counters(tx->slot()).count_call(tx->attempt());
      }
    } call_guard{this, &tx};
    // Seed from the thread slot as well as the stack address: stacks are
    // allocated at stride-aligned addresses, so address bits alone give
    // sibling threads correlated backoff sequences.
    Backoff backoff(0x7265747279ULL ^
                        (reinterpret_cast<std::uintptr_t>(&tx) >> 4) ^
                        (std::uint64_t{tx.slot()} * 0x9E3779B97F4A7C15ULL));
    for (;;) {
      // Irrevocable fallback: past the threshold of *eligible* attempts
      // (injected chaos aborts do not count), hold the commit gate
      // exclusively for the whole attempt — no other transaction can commit
      // under us, so our snapshot stays valid and the attempt succeeds.
      std::unique_lock<std::shared_mutex> exclusive_gate;
      std::uint64_t gate_t0 = 0;
      if (options_.fallback_after != 0 &&
          tx.eligible_attempts() + 1 > options_.fallback_after) {
        exclusive_gate = std::unique_lock<std::shared_mutex>(gate_);
        tx.set_gate_exempt(true);
        gate_t0 = steady_now_ns();
        gate_holder_.store(tx.slot(), std::memory_order_relaxed);
        gate_entered_ns_.store(gate_t0, std::memory_order_release);
      }
      try {
        tx.begin();
        if constexpr (std::is_void_v<R>) {
          body(tx);
          tx.commit();
          if (gate_t0 != 0) finish_gate_hold(tx.slot(), gate_t0);
          return;
        } else {
          R result = body(tx);
          tx.commit();
          if (gate_t0 != 0) finish_gate_hold(tx.slot(), gate_t0);
          return result;
        }
      } catch (const ConflictAbort& a) {
        tx.rollback(a.reason);
        if (exclusive_gate.owns_lock()) exclusive_gate.unlock();
        if (gate_t0 != 0) finish_gate_hold(tx.slot(), gate_t0);
        tx.set_gate_exempt(false);
        pause_between_attempts(tx.slot(), backoff);
      } catch (...) {
        tx.rollback(AbortReason::Explicit);
        if (gate_t0 != 0) finish_gate_hold(tx.slot(), gate_t0);
        // Reset gate exemption before propagating: a Txn (or arena) reused
        // after a user exception must not inherit stale fallback state. The
        // exclusive gate itself is released by exclusive_gate's destructor.
        tx.set_gate_exempt(false);
        throw;
      }
    }
  }

  /// Shared-side commit gate used when the fallback is enabled. Ordinary
  /// commits try-lock it; failure means a fallback transaction is running
  /// and the committer must abort (never block while holding STM locks).
  bool gate_enabled() const noexcept { return options_.fallback_after != 0; }
  std::shared_mutex& gate() noexcept { return gate_; }

 private:
  static std::uint64_t steady_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Inter-attempt pause: randomized exponential backoff, timed into
  /// stats. CmPolicy::None retries immediately (the livelock ablation).
  void pause_between_attempts(unsigned slot, Backoff& backoff) {
    if (options_.cm_policy == CmPolicy::None) return;
    const std::uint64_t t0 = steady_now_ns();
    backoff.pause();
    stats_.counters(slot).count_backoff_ns(steady_now_ns() - t0);
  }

  /// Close out one irrevocable-fallback hold: record the duration and clear
  /// the watchdog-visible publication.
  void finish_gate_hold(unsigned slot, std::uint64_t t0) noexcept {
    gate_entered_ns_.store(0, std::memory_order_release);
    gate_holder_.store(~0u, std::memory_order_relaxed);
    stats_.counters(slot).count_gate_hold_ns(steady_now_ns() - t0);
  }

  /// Stamps handed out per thread slot; padded so neighbouring slots never
  /// share a cache line. Exclusively owned by the slot's current holder
  /// (handoff is ordered by the ThreadRegistry mutex).
  struct alignas(kCacheLine) StampCell {
    std::uint64_t next = 0;
    std::uint64_t end = 0;
  };
  static constexpr std::uint64_t kStampBlock = 1024;

  alignas(kCacheLine) std::atomic<Version> clock_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> stamps_{0};
  std::array<StampCell, ThreadRegistry::kMaxSlots> stamp_cells_{};
  Mode mode_;
  StmOptions options_;
  Stats stats_;
  std::shared_mutex gate_;
  std::atomic<std::uint64_t> gate_entered_ns_{0};
  std::atomic<std::uint32_t> gate_holder_{~0u};
};

}  // namespace proust::stm
