// The Proustian ordered map with an *interval* conflict abstraction — the
// §1 motivating example no prior wrapper system expressed: "in a map,
// queries and updates to non-intersecting key ranges commute."
//
// Keys are striped CONTIGUOUSLY (not hashed): stripe(k) is monotone in k,
// so a range operation's conflict abstraction is the contiguous set of
// stripes its interval covers. A point update Write()s its key's stripe; a
// range query Read()s every covered stripe. Two range queries always
// commute (r/r); a range query conflicts with a point update iff the
// update's stripe is covered — i.e. (up to stripe granularity) iff the key
// ranges intersect. Tightening M trades memory for false conflicts exactly
// as §3's lock-striping discussion describes.
//
// Update strategy: eager with inverses, over the lazy concurrent skip list.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "containers/concurrent_skip_list.hpp"
#include "core/abstract_lock.hpp"
#include "core/committed_size.hpp"
#include "core/update_strategy.hpp"
#include "stm/stm.hpp"
#include "stm/thread_registry.hpp"

namespace proust::core {

/// Stripe indices are the abstract-lock key domain; identity hash keeps
/// them contiguous in the LAP's region.
struct StripeHasher {
  std::size_t operator()(std::size_t s) const noexcept { return s; }
};

template <class V, LockAllocatorPolicy<std::size_t> Lap>
class TxnOrderedMap {
  using K = long;

 public:
  /// `key_min`/`key_max` bound the expected key space; `stripes` is the
  /// interval-CA granularity M. Keys outside the bounds clamp to the edge
  /// stripes (correct, just coarser there).
  TxnOrderedMap(Lap& lap, K key_min, K key_max, std::size_t stripes)
      : lock_(lap, UpdateStrategy::Eager),
        key_min_(key_min), key_max_(key_max), stripes_(stripes) {}

  std::optional<V> put(stm::Txn& tx, K key, const V& value) {
    const std::size_t s = stripe_of(key);
    return lock_.apply(
        tx, s, /*write=*/true,
        [&] {
          std::optional<V> ret = map_.put(key, value);
          if (!ret) size_.bump(tx, +1);
          return ret;
        },
        [this, key](const std::optional<V>& old) {
          if (old) {
            map_.put(key, *old);
          } else {
            map_.remove(key);
          }
        });
  }

  std::optional<V> get(stm::Txn& tx, K key) {
    // The skip list's point lookup is internally safe against concurrent
    // mutators, so on the unlocked side (DESIGN.md §12) the interval
    // stripe's CA slot alone guards the read.
    return lock_.read(tx, stripe_of(key), [&] {
      pin_for_attempt(tx);
      return map_.get(key);
    });
  }

  bool contains(stm::Txn& tx, K key) {
    return lock_.read(tx, stripe_of(key), [&] {
      pin_for_attempt(tx);
      return map_.contains(key);
    });
  }

  std::optional<V> remove(stm::Txn& tx, K key) {
    const std::size_t s = stripe_of(key);
    return lock_.apply(
        tx, s, /*write=*/true,
        [&] {
          std::optional<V> ret = map_.remove(key);
          if (ret) size_.bump(tx, -1);
          return ret;
        },
        [this, key](const std::optional<V>& old) {
          if (old) map_.put(key, *old);
        });
  }

  /// Visit every (key, value) with lo <= key <= hi, transactionally
  /// consistent: the CA reads every stripe the interval covers, so any
  /// committed conflicting update forces this transaction to retry, and
  /// under the pessimistic LAP writers to the range are excluded.
  template <class F>
  void range_for_each(stm::Txn& tx, K lo, K hi, F&& f) {
    acquire_range(tx, lo, hi);
    map_.range_for_each(lo, hi, std::forward<F>(f));
  }

  /// Sum of values in [lo, hi] (requires V to be summable).
  V range_sum(stm::Txn& tx, K lo, K hi) {
    V total{};
    range_for_each(tx, lo, hi, [&](K, const V& v) { total += v; });
    return total;
  }

  /// Number of keys in [lo, hi].
  long range_count(stm::Txn& tx, K lo, K hi) {
    long n = 0;
    range_for_each(tx, lo, hi, [&](K, const V&) { ++n; });
    return n;
  }

  /// Smallest key >= lo (transactionally consistent via the covering-stripe
  /// reads from lo's stripe upward; conservative — reads to key_max_).
  std::optional<K> ceiling_key(stm::Txn& tx, K lo) {
    acquire_range(tx, lo, key_max_);
    return map_.ceiling_key(lo);
  }

  /// Remove and return the entry with the smallest key >= lo (a scheduler's
  /// "claim next job" step). Composed of ceiling_key + remove, so it
  /// inherits their conflict abstraction: reads the stripes from lo upward
  /// (conservative) and writes the claimed key's stripe — two concurrent
  /// pop_firsts over overlapping windows conflict, as they must (they race
  /// for the same minimum), while point updates below lo commute.
  std::optional<std::pair<K, V>> pop_first(stm::Txn& tx, K lo) {
    const std::optional<K> k = ceiling_key(tx, lo);
    if (!k) return std::nullopt;
    std::optional<V> v = remove(tx, *k);
    if (!v) return std::nullopt;  // raced within this txn's own view only
    return std::make_pair(*k, *v);
  }

  long size() const noexcept { return size_.load(); }

  void unsafe_put(K key, const V& value) {
    if (!map_.put(key, value)) size_.unsafe_add(1);
  }

  std::size_t stripes() const noexcept { return stripes_; }

  /// The base skip list's structural check (quiescent use only; empty =
  /// sound).
  std::string check_invariants() const { return map_.check_invariants(); }

 private:
  /// Amortize the EBR announce fence across the attempt (see
  /// TxnHashMap::pin_for_attempt — same contract: unpin at finish, after
  /// the abort hooks, so rollback inverses retire under this pin).
  void pin_for_attempt(stm::Txn& tx) {
    const unsigned slot = stm::ThreadRegistry::slot();
    if (!map_.reader_pin(slot)) return;  // already ours for this attempt
    tx.on_finish(
        [this, slot](stm::Outcome) { map_.reader_unpin(slot); });
  }

  std::size_t stripe_of(K key) const noexcept {
    const K clamped = std::clamp(key, key_min_, key_max_);
    const unsigned __int128 span =
        static_cast<unsigned __int128>(key_max_ - key_min_) + 1;
    return static_cast<std::size_t>(
        static_cast<unsigned __int128>(clamped - key_min_) * stripes_ / span);
  }

  void acquire_range(stm::Txn& tx, K lo, K hi) {
    if (hi < lo) return;
    const std::size_t first = stripe_of(lo);
    const std::size_t last = stripe_of(hi);
    for (std::size_t s = first; s <= last; ++s) {
      lock_.apply(tx, {Read(s)}, [] {});
    }
  }

  AbstractLock<std::size_t, Lap> lock_;
  containers::ConcurrentSkipList<K, V> map_;
  CommittedSize size_;
  K key_min_;
  K key_max_;
  std::size_t stripes_;
};

}  // namespace proust::core
