// Commit-visibility fence: closes the window between a transaction's
// *logical* commit and its effects landing in a shared base structure.
//
// A committing transaction draws its write version (advancing the global
// clock) and only then runs its commit-locked hooks — the replay of a lazy
// wrapper's operation log onto the shared base. To the STM that commit has
// already happened: a transaction starting in the window reads an `rv`
// covering the committer's `wv`, so the committer's stripes validate clean
// once released. But a snapshot shadow copy taken in the same window reads
// the base *before* the replay lands, so the new transaction judges its
// operations (returned old-values, size deltas) against state that is
// missing a commit serialized before it. The per-key read-after checks
// cannot catch this — the snapshot reads every key at once, only the keys
// the transaction touches are validated, and those validate successfully
// precisely because `wv <= rv`. The chaos harness found this (DESIGN.md
// §9): injected delays between wv generation and replay stretched the
// window from nanoseconds to microseconds and the lazy-snapshot
// differential suites diverged from their reference within a few hundred
// transactions.
//
// The fence is seqlock-like, generalized to concurrent writers. Committers
// are bracketed by the STM itself across [wv generation .. commit-locked
// hooks complete] (Txn::commit enters every fence registered via
// on_commit_locked(hook, fence)); replay application additionally brackets
// itself for direct (non-transactional) use. Snapshotters accept a copy
// only if the fence word — [entry count | active count] packed in one
// atomic — is quiescent before the copy and unchanged after it: any
// bracket that overlaps, or even fully runs inside, the copy forces a
// retry. Writers never wait, so a snapshotter (which holds no STM locks
// while in the transaction body) spins only while some committer makes
// progress: no cycles. Under a commit storm the snapshotter retries like
// any seqlock reader; the copy itself is O(1), so the window is tiny.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/backoff.hpp"

namespace proust::stm {

class CommitFence {
 public:
  // Low 20 bits: writers in flight. High 44 bits: total entries.
  static constexpr std::uint64_t kActiveMask = (1ull << 20) - 1;
  static constexpr std::uint64_t kEntry = (1ull << 20) | 1ull;

  /// Raw fence word, for a reader that brackets a multi-step read itself
  /// (the checkpointer's consistent cut): quiescent before, unchanged after.
  std::uint64_t word() const noexcept {
    return word_.load(std::memory_order_seq_cst);
  }

  /// True when no writer bracket is in flight in `w`.
  static constexpr bool quiescent(std::uint64_t w) noexcept {
    return (w & kActiveMask) == 0;
  }

  /// Writer bracket. Entries nest (the STM's commit bracket encloses the
  /// replay log's own); the fence is quiescent when every enter has exited.
  void enter() noexcept { word_.fetch_add(kEntry, std::memory_order_seq_cst); }
  void exit() noexcept { word_.fetch_sub(1, std::memory_order_release); }

  class Guard {
   public:
    explicit Guard(CommitFence& f) noexcept : f_(f) { f_.enter(); }
    ~Guard() { f_.exit(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    CommitFence& f_;
  };

  /// Take a snapshot via `take` at a cut no writer bracket overlaps:
  /// quiescent before the copy and no entry since. Retries otherwise.
  template <class Take>
  auto consistent(const Take& take) {
    for (;;) {
      const std::uint64_t before = word_.load(std::memory_order_seq_cst);
      if ((before & kActiveMask) != 0) {
        Backoff::cpu_relax();
        continue;
      }
      auto snap = take();
      if (word_.load(std::memory_order_seq_cst) == before) return snap;
    }
  }

 private:
  std::atomic<std::uint64_t> word_{0};
};

}  // namespace proust::stm
