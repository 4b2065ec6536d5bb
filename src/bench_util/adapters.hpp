// Uniform adapters over every transactional map implementation compared in
// §7: each exposes
//    txn(body)   — run `body(view)` as one atomic transaction, where `view`
//                  has put/get/remove/contains;
//    prefill(k,v), name(), and stm() (the Stm whose stats the harness reads,
//    or nullptr for the non-STM global lock).
// This is what lets one harness drive the pure-STM baselines, predication,
// and the Proustian configurations over identical workloads.
#pragma once

#include <optional>
#include <string>
#include <type_traits>

#include "baselines/coarse_lock_map.hpp"
#include "baselines/predication_map.hpp"
#include "baselines/pure_stm_map.hpp"
#include "baselines/pure_stm_tree_map.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_hash_map.hpp"
#include "stm/stm.hpp"

namespace proust::bench {

/// Binds a Proust-style map (whose operations take a Txn&) to a running
/// transaction, presenting the plain map interface the workload body uses.
template <class M>
struct TxView {
  M& m;
  stm::Txn& tx;
  std::optional<long> put(long k, long v) { return m.put(tx, k, v); }
  std::optional<long> get(long k) { return m.get(tx, k); }
  std::optional<long> remove(long k) { return m.remove(tx, k); }
  bool contains(long k) { return m.contains(tx, k); }
};

template <class Derived>
class StmAdapterBase {
 public:
  template <class Body>
  void txn(Body&& body) {
    auto& m = static_cast<Derived*>(this)->map();
    stm_.atomically([&](stm::Txn& tx) {
      TxView<std::remove_reference_t<decltype(m)>> view{m, tx};
      body(view);
    });
  }
  void prefill(long k, long v) {
    static_cast<Derived*>(this)->map().unsafe_put(k, v);
  }
  stm::Stm* stm() noexcept { return &stm_; }

 protected:
  explicit StmAdapterBase(stm::Mode mode, stm::StmOptions opts = {})
      : stm_(mode, opts) {}
  stm::Stm stm_;
};

class PureStmAdapter : public StmAdapterBase<PureStmAdapter> {
 public:
  PureStmAdapter(stm::Mode mode, long key_range, stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts),
        map_(stm_, static_cast<std::size_t>(key_range) * 4) {}
  static std::string name() { return "pure-stm"; }
  baselines::PureStmMap<long, long>& map() noexcept { return map_; }

 private:
  baselines::PureStmMap<long, long> map_;
};

/// The pure-STM treap (structural false conflicts: rotations and the root
/// pointer put logically-disjoint keys into shared locations).
class PureStmTreeAdapter : public StmAdapterBase<PureStmTreeAdapter> {
 public:
  explicit PureStmTreeAdapter(stm::Mode mode, stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), map_(stm_, 8192) {}
  static std::string name() { return "pure-stm-tree"; }
  baselines::PureStmTreeMap<long, long>& map() noexcept { return map_; }

 private:
  baselines::PureStmTreeMap<long, long> map_;
};

class PredicationAdapter : public StmAdapterBase<PredicationAdapter> {
 public:
  explicit PredicationAdapter(stm::Mode mode, stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), map_(stm_) {}
  static std::string name() { return "predication"; }
  baselines::PredicationMap<long, long>& map() noexcept { return map_; }

 private:
  baselines::PredicationMap<long, long> map_;
};

/// Proust eager map over the optimistic LAP (eager/optimistic quadrant).
class EagerOptAdapter : public StmAdapterBase<EagerOptAdapter> {
  using Lap = core::OptimisticLap<long>;
  using Map = core::TxnHashMap<long, long, Lap>;

 public:
  EagerOptAdapter(stm::Mode mode, std::size_t ca_slots,
                  stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), lap_(stm_, ca_slots), map_(lap_) {}
  static std::string name() { return "proust-eager"; }
  Map& map() noexcept { return map_; }

 private:
  Lap lap_;
  Map map_;
};

/// Proust eager map over the pessimistic LAP (Boosting quadrant).
class PessimisticAdapter : public StmAdapterBase<PessimisticAdapter> {
  using Lap = core::PessimisticLap<long>;
  using Map = core::TxnHashMap<long, long, Lap>;

 public:
  PessimisticAdapter(stm::Mode mode, std::size_t stripes,
                     stm::StmOptions opts = {})
      // The map's shard count tracks the LAP striping, so `--ca-slots`
      // governs both.
      : StmAdapterBase(mode, opts), lap_(stm_, stripes),
        map_(lap_, stripes) {}
  static std::string name() { return "proust-pess"; }
  Map& map() noexcept { return map_; }

 private:
  Lap lap_;
  Map map_;
};

/// Proust lazy-memoizing map over the pessimistic LAP — the sound
/// lazy/pessimistic cell of Figure 1 (the memo table reads the base per key
/// under that key's abstract lock, so observed values are committed ones).
class LazyMemoPessAdapter : public StmAdapterBase<LazyMemoPessAdapter> {
  using Lap = core::PessimisticLap<long>;
  using Map = core::LazyHashMap<long, long, Lap>;

 public:
  LazyMemoPessAdapter(stm::Mode mode, std::size_t stripes,
                      stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), lap_(stm_, stripes),
        map_(lap_, /*combine_log=*/false) {}
  static std::string name() { return "proust-pess-lazy"; }
  Map& map() noexcept { return map_; }

 private:
  Lap lap_;
  Map map_;
};

/// Proust lazy map with snapshot shadow copies (LazyTrieMap of Fig. 2b);
/// `combine` enables snapshot-replay combining (a §9 extension).
class LazySnapshotAdapter : public StmAdapterBase<LazySnapshotAdapter> {
  using Lap = core::OptimisticLap<long>;
  using Map = core::LazyTrieMap<long, long, Lap>;

 public:
  LazySnapshotAdapter(stm::Mode mode, std::size_t ca_slots,
                      bool combine = false, stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), lap_(stm_, ca_slots), map_(lap_, combine),
        combine_(combine) {}
  std::string name() const {
    return combine_ ? "proust-lazy-snap+c" : "proust-lazy-snap";
  }
  Map& map() noexcept { return map_; }

 private:
  Lap lap_;
  Map map_;
  bool combine_;
};

/// Proust lazy map with memoizing shadow copies (§4's LazyHashMap); the
/// `combine` flag enables the log-combining optimization (Fig. 4 bottom).
class LazyMemoAdapter : public StmAdapterBase<LazyMemoAdapter> {
  using Lap = core::OptimisticLap<long>;
  using Map = core::LazyHashMap<long, long, Lap>;

 public:
  LazyMemoAdapter(stm::Mode mode, std::size_t ca_slots, bool combine = false,
                  stm::StmOptions opts = {})
      : StmAdapterBase(mode, opts), lap_(stm_, ca_slots), map_(lap_, combine),
        combine_(combine) {}
  std::string name() const {
    return combine_ ? "proust-lazy-memo+c" : "proust-lazy-memo";
  }
  Map& map() noexcept { return map_; }

 private:
  Lap lap_;
  Map map_;
  bool combine_;
};

/// Whole-transaction global lock (serializable floor/ceiling reference).
class GlobalLockAdapter {
  using Map = baselines::CoarseLockMap<long, long>;

 public:
  static std::string name() { return "global-lock"; }
  template <class Body>
  void txn(Body&& body) {
    map_.transaction([&](Map& m) { body(m); });
  }
  void prefill(long k, long v) { map_.unsafe_put(k, v); }
  static stm::Stm* stm() noexcept { return nullptr; }

 private:
  Map map_;
};

}  // namespace proust::bench
