// AbstractLock (Listing 1): the single entry point through which a Proustian
// wrapper runs a base-structure operation. It
//   1. acquires the requested abstract locks via the LAP (for the optimistic
//      LAP this *is* the conflict-abstraction write/read of §3);
//   2. runs the operation;
//   3. under the eager strategy, registers the caller's inverse as a
//      rollback handler (run in reverse order on abort, while the
//      transaction's synchronization is still held);
//   4. under the lazy strategy, performs the Theorem 5.3 read-after-op on
//      each lock's CA location, read or write: a locked read of the shared
//      base is only as good as a CA slot that did not move while the
//      operation ran, since a committer's replay can land between the
//      acquire and the base read.
//
// The choice of optimistic vs pessimistic conflict resolution stays with the
// LockAllocatorPolicy passed at construction, exactly as in the paper.
//
// Read-only operations (read()) take one of two paths, fixed at
// construction: an eager wrapper whose LAP's locked read would publish a
// visible-reader mark (OptimisticLap on Mode::EagerAll) runs them as the
// LAP's guarded read, unlocked and validated against the key's CA slot
// (DESIGN.md §12); every other wrapper, lazy ones included, takes the lock.
#pragma once

#include <initializer_list>
#include <type_traits>
#include <utility>

#include "core/lap.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"

namespace proust::core {

struct NoInverse {};

template <class Key, LockAllocatorPolicy<Key> Lap>
class AbstractLock {
 public:
  AbstractLock(Lap& lap, UpdateStrategy strategy) noexcept
      : lap_(&lap),
        strategy_(strategy),
        unlocked_reads_(strategy == UpdateStrategy::Eager &&
                        lap.reads_visible()) {}

  /// Run the read-only `op` on `key`'s region: as the LAP's guarded read
  /// on the unlocked side (see the file comment), else under a read lock
  /// (apply with write=false). `op` must rely only on the base's own
  /// synchronization, and may run more than once.
  template <class F>
  auto read(stm::Txn& tx, const Key& key, F&& op) {
    if constexpr (requires { lap_->read_guarded(tx, key, op); }) {
      if (unlocked_reads_) return lap_->read_guarded(tx, key, op);
    }
    return apply(tx, key, /*write=*/false, std::forward<F>(op));
  }

  /// apply(tx, {locks...})(op) — no inverse (reads, or lazy updates whose
  /// rollback is "drop the replay log").
  template <class F>
  auto apply(stm::Txn& tx, std::initializer_list<LockFor<Key>> locks, F&& op) {
    return apply(tx, locks, std::forward<F>(op), NoInverse{});
  }

  /// apply(tx, {locks...})(op)(inverse) — eager updates. `inverse` receives
  /// the operation's result (like Listing 1's invF: Z => Unit) and must
  /// restore the base structure's abstract state.
  template <class F, class Inv>
  auto apply(stm::Txn& tx, std::initializer_list<LockFor<Key>> locks, F&& op,
             Inv&& inverse) {
    for (const LockFor<Key>& l : locks) lap_->acquire(tx, l.key, l.write);
    const auto read_after = [&] {
      for (const LockFor<Key>& l : locks) lap_->post_op(tx, l.key, l.write);
    };
    return apply_locked(tx, std::forward<F>(op), std::forward<Inv>(inverse),
                        read_after);
  }

  /// Single-lock apply, key by const reference. The initializer-list form
  /// copies the key into a LockFor<Key> per call, which heap-allocates for
  /// heavyweight keys (std::string past SSO); the wrappers' single-key hot
  /// paths use this overload instead.
  template <class F>
  auto apply(stm::Txn& tx, const Key& key, bool write, F&& op) {
    return apply(tx, key, write, std::forward<F>(op), NoInverse{});
  }

  template <class F, class Inv>
  auto apply(stm::Txn& tx, const Key& key, bool write, F&& op, Inv&& inverse) {
    lap_->acquire(tx, key, write);
    return apply_locked(tx, std::forward<F>(op), std::forward<Inv>(inverse),
                        [&] { lap_->post_op(tx, key, write); });
  }

 private:
  /// Steps 2-4 of the file comment, with the locks held: run `op`, register
  /// `inverse` (unless NoInverse) and, under the lazy strategy, run
  /// `read_after` (the locks' post_op read-backs).
  template <class F, class Inv, class ReadAfter>
  auto apply_locked(stm::Txn& tx, F&& op, Inv&& inverse,
                    const ReadAfter& read_after) {
    constexpr bool kInverse = !std::is_same_v<std::decay_t<Inv>, NoInverse>;
    using R = std::invoke_result_t<F&>;
    if constexpr (std::is_void_v<R>) {
      op();
      if constexpr (kInverse) {
        tx.on_abort([inv = std::forward<Inv>(inverse)]() { inv(); });
      }
      if (strategy_ == UpdateStrategy::Lazy) read_after();
    } else {
      R result = op();
      if constexpr (kInverse) {
        tx.on_abort(
            [inv = std::forward<Inv>(inverse), result]() { inv(result); });
      }
      if (strategy_ == UpdateStrategy::Lazy) read_after();
      return result;
    }
  }

  Lap* lap_;
  UpdateStrategy strategy_;
  bool unlocked_reads_;  // eager strategy and lap.reads_visible()
};

}  // namespace proust::core
