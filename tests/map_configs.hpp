// Type-erased handles over every transactional map configuration in the
// Proust design space, so the semantic test suites can run identically
// against all of them:
//   eager/optimistic, eager/pessimistic (Boosting), lazy-memo (±combining),
//   lazy-snapshot, each on the applicable STM modes, plus the two baselines.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/predication_map.hpp"
#include "baselines/pure_stm_map.hpp"
#include "core/lap.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_hash_map.hpp"
#include "stm/stm.hpp"

namespace proust::testing {

class MapView {
 public:
  virtual std::optional<long> put(long k, long v) = 0;
  virtual std::optional<long> get(long k) = 0;
  virtual std::optional<long> remove(long k) = 0;
  virtual bool contains(long k) = 0;

 protected:
  ~MapView() = default;
};

class MapUnderTest {
 public:
  virtual ~MapUnderTest() = default;
  virtual void atomically(const std::function<void(MapView&)>& body) = 0;
  /// Like atomically, but the body also sees the transaction — for tests
  /// that register hooks (differential reference application, injected
  /// aborts) alongside map operations.
  virtual void atomically_tx(
      const std::function<void(MapView&, stm::Txn&)>& body) = 0;
  virtual long committed_size() const = 0;  // -1 if unsupported
  /// The wrapper's base-structure check at a quiescent point (empty = sound,
  /// or no check for this configuration).
  virtual std::string check_invariants() const = 0;
  virtual stm::StatsSnapshot stats() = 0;
  virtual stm::Stm& stm() = 0;

  // Single-op conveniences (each its own transaction).
  std::optional<long> put1(long k, long v) {
    std::optional<long> r;
    atomically([&](MapView& m) { r = m.put(k, v); });
    return r;
  }
  std::optional<long> get1(long k) {
    std::optional<long> r;
    atomically([&](MapView& m) { r = m.get(k); });
    return r;
  }
  std::optional<long> remove1(long k) {
    std::optional<long> r;
    atomically([&](MapView& m) { r = m.remove(k); });
    return r;
  }
  bool contains1(long k) {
    bool r = false;
    atomically([&](MapView& m) { r = m.contains(k); });
    return r;
  }
};

namespace detail {

template <class Map>
class ViewImpl final : public MapView {
 public:
  ViewImpl(Map& m, stm::Txn& tx) : m_(m), tx_(tx) {}
  std::optional<long> put(long k, long v) override { return m_.put(tx_, k, v); }
  std::optional<long> get(long k) override { return m_.get(tx_, k); }
  std::optional<long> remove(long k) override { return m_.remove(tx_, k); }
  bool contains(long k) override { return m_.contains(tx_, k); }

 private:
  Map& m_;
  stm::Txn& tx_;
};

template <class Lap, class Map>
class ProustMapHandle final : public MapUnderTest {
 public:
  template <class MakeLap, class MakeMap>
  ProustMapHandle(stm::Mode mode, const stm::StmOptions& opts,
                  MakeLap&& make_lap, MakeMap&& make_map)
      : stm_(mode, opts), lap_(make_lap(stm_)), map_(make_map(*lap_)) {}

  void atomically(const std::function<void(MapView&)>& body) override {
    stm_.atomically([&](stm::Txn& tx) {
      ViewImpl<Map> v(*map_, tx);
      body(v);
    });
  }
  void atomically_tx(
      const std::function<void(MapView&, stm::Txn&)>& body) override {
    stm_.atomically([&](stm::Txn& tx) {
      ViewImpl<Map> v(*map_, tx);
      body(v, tx);
    });
  }
  long committed_size() const override { return map_->size(); }
  std::string check_invariants() const override {
    if constexpr (requires { map_->check_invariants(); }) {
      return map_->check_invariants();
    } else {
      return {};
    }
  }
  stm::StatsSnapshot stats() override { return stm_.stats().snapshot(); }
  stm::Stm& stm() override { return stm_; }

 private:
  stm::Stm stm_;
  std::unique_ptr<Lap> lap_;
  std::unique_ptr<Map> map_;
};

template <class Map>
class BaselineMapHandle final : public MapUnderTest {
 public:
  template <class MakeMap>
  BaselineMapHandle(stm::Mode mode, const stm::StmOptions& opts,
                    MakeMap&& make_map)
      : stm_(mode, opts), map_(make_map(stm_)) {}

  void atomically(const std::function<void(MapView&)>& body) override {
    stm_.atomically([&](stm::Txn& tx) {
      ViewImpl<Map> v(*map_, tx);
      body(v);
    });
  }
  void atomically_tx(
      const std::function<void(MapView&, stm::Txn&)>& body) override {
    stm_.atomically([&](stm::Txn& tx) {
      ViewImpl<Map> v(*map_, tx);
      body(v, tx);
    });
  }
  long committed_size() const override { return -1; }
  std::string check_invariants() const override { return {}; }
  stm::StatsSnapshot stats() override { return stm_.stats().snapshot(); }
  stm::Stm& stm() override { return stm_; }

 private:
  stm::Stm stm_;
  std::unique_ptr<Map> map_;
};

}  // namespace detail

struct MapConfig {
  std::string name;
  /// Build the configuration on an Stm constructed with the given options
  /// (chaos policy, LAP timeouts, fallback threshold...).
  std::function<std::unique_ptr<MapUnderTest>(const stm::StmOptions&)>
      make_with;
  /// False for the eager/optimistic quadrant on STMs that detect some
  /// conflicts lazily: per Figure 1 (and footnote 3), that combination does
  /// not satisfy opacity — concurrent invariant tests would legitimately
  /// fail, exactly as the paper warns. tests/opacity_test.cpp demonstrates
  /// the mechanism deliberately.
  bool opaque = true;

  std::unique_ptr<MapUnderTest> make() const { return make_with({}); }
};

inline std::vector<MapConfig> all_map_configs() {
  using OptLap = core::OptimisticLap<long>;
  using PessLap = core::PessimisticLap<long>;
  std::vector<MapConfig> configs;

  const auto opt_lap = [](stm::Stm& s) {
    return std::make_unique<OptLap>(s, 256);
  };
  const auto pess_lap = [](stm::Stm& s) {
    return std::make_unique<PessLap>(s, 256);
  };

  const auto add_eager = [&](const std::string& tag, stm::Mode mode,
                             bool opaque) {
    using Map = core::TxnHashMap<long, long, OptLap>;
    configs.push_back(
        {"eager_opt_" + tag,
         [mode, opt_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<OptLap, Map>>(
               mode, o, opt_lap,
               [](OptLap& l) { return std::make_unique<Map>(l); });
         },
         opaque});
  };
  // Theorem 5.2: eager/optimistic is opaque only when the STM detects all
  // conflicts eagerly (EagerAll).
  add_eager("lazystm", stm::Mode::Lazy, /*opaque=*/false);
  add_eager("eagerwrite", stm::Mode::EagerWrite, /*opaque=*/false);
  add_eager("eagerall", stm::Mode::EagerAll, /*opaque=*/true);

  {
    using Map = core::TxnHashMap<long, long, PessLap>;
    configs.push_back(
        {"eager_pess", [pess_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<PessLap, Map>>(
               stm::Mode::Lazy, o, pess_lap,
               [](PessLap& l) { return std::make_unique<Map>(l); });
         }});
  }

  const auto add_memo = [&](const std::string& tag, stm::Mode mode,
                            bool combine) {
    using Map = core::LazyHashMap<long, long, OptLap>;
    configs.push_back(
        {"lazy_memo_" + tag,
         [mode, combine, opt_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<OptLap, Map>>(
               mode, o, opt_lap, [combine](OptLap& l) {
                 return std::make_unique<Map>(l, combine);
               });
         }});
  };
  add_memo("lazystm", stm::Mode::Lazy, false);
  add_memo("combining", stm::Mode::Lazy, true);
  add_memo("eagerall", stm::Mode::EagerAll, false);

  const auto add_snap = [&](const std::string& tag, stm::Mode mode,
                            bool combine) {
    using Map = core::LazyTrieMap<long, long, OptLap>;
    configs.push_back(
        {"lazy_snap_" + tag,
         [mode, combine, opt_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<OptLap, Map>>(
               mode, o, opt_lap, [combine](OptLap& l) {
                 return std::make_unique<Map>(l, combine);
               });
         }});
  };
  add_snap("lazystm", stm::Mode::Lazy, false);
  add_snap("eagerall", stm::Mode::EagerAll, false);
  // The Sec. 9 log-combining extension to snapshot replays.
  add_snap("combining", stm::Mode::Lazy, true);

  // The "empty quarter" of Figure 1: snapshot shadow copies under
  // pessimistic locks. Sequentially fine, but NOT serializable under
  // concurrency: the snapshot covers the whole map while 2PL only protects
  // the keys actually locked, and without the Theorem 5.3 CA read-after
  // there is nothing to invalidate a stale snapshot. Our concurrent suite
  // reproduces the lost-update, which is why the paper calls this cell
  // impractical ("not all combinations make sense").
  {
    using Map = core::LazyTrieMap<long, long, PessLap>;
    configs.push_back(
        {"lazy_snap_pess",
         [pess_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<PessLap, Map>>(
               stm::Mode::Lazy, o, pess_lap,
               [](PessLap& l) { return std::make_unique<Map>(l); });
         },
         /*opaque=*/false});
  }

  // Memoizing shadow copies under pessimistic locks ARE sound: the memo
  // table reads the base per key at access time, under that key's abstract
  // lock, so every observed value is the current committed one.
  {
    using Map = core::LazyHashMap<long, long, PessLap>;
    configs.push_back(
        {"lazy_memo_pess", [pess_lap](const stm::StmOptions& o) {
           return std::make_unique<detail::ProustMapHandle<PessLap, Map>>(
               stm::Mode::Lazy, o, pess_lap, [](PessLap& l) {
                 return std::make_unique<Map>(l, /*combine=*/false);
               });
         }});
  }

  configs.push_back({"baseline_pure_stm", [](const stm::StmOptions& o) {
                       using Map = baselines::PureStmMap<long, long>;
                       return std::make_unique<detail::BaselineMapHandle<Map>>(
                           stm::Mode::Lazy, o, [](stm::Stm& s) {
                             return std::make_unique<Map>(s, 4096);
                           });
                     }});
  configs.push_back({"baseline_predication", [](const stm::StmOptions& o) {
                       using Map = baselines::PredicationMap<long, long>;
                       return std::make_unique<detail::BaselineMapHandle<Map>>(
                           stm::Mode::Lazy, o, [](stm::Stm& s) {
                             return std::make_unique<Map>(s);
                           });
                     }});
  return configs;
}

/// Configurations whose concurrent histories are serializable/opaque — the
/// ones the concurrent invariant suites run against.
inline std::vector<MapConfig> opaque_map_configs() {
  std::vector<MapConfig> out;
  for (auto& c : all_map_configs()) {
    if (c.opaque) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace proust::testing
