// Differential tests for the unlocked read path (DESIGN.md §12): guarded
// wrapper reads, validated against their CA slot's orec, racing mutators
// across the map-config matrix and under chaos, read-your-writes, and stats
// accounting per the rule that picks each wrapper's read path. The
// invariant under test is always the same: a transaction that reads a pair
// of keys the writers only ever update *together* must see equal values —
// in its body on every attempt (opacity), not only in the attempts that
// commit. Four cases replay interleavings that broke it in earlier
// protocols: two writers in flight on one base stripe, a locked read after
// an unlocked one, a pessimistic wrapper's read after an unlocked one, and
// a guarded read that spans a writer's in-place write and rollback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hashing.hpp"
#include "core/lap.hpp"
#include "core/txn_hash_map.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"
#include "map_configs.hpp"
#include "stm/chaos.hpp"
#include "stm/stm.hpp"

using namespace proust;
using namespace proust::testing;
using namespace std::chrono_literals;

namespace {

constexpr long kHalf = 32;

/// Does `cfg` serve reads unlocked under the rule? Only an eager wrapper on
/// EagerAll does: every EagerAll config in the matrix is over the optimistic
/// LAP, and lazy wrappers read through their lock in every mode.
bool reads_unlocked(const MapConfig& cfg, MapUnderTest& map) {
  return cfg.name.rfind("eager_", 0) == 0 &&
         map.stm().mode() == stm::Mode::EagerAll;
}

/// The lazy wrappers on EagerAll: their LAP's locked read is visible, yet
/// they take the lock. Counted so the tests below prove they ran.
bool lazy_on_eagerall(const MapConfig& cfg, MapUnderTest& map) {
  return cfg.name.rfind("lazy_", 0) == 0 &&
         map.stm().mode() == stm::Mode::EagerAll;
}

void await(const std::atomic<int>& stage, int value) {
  while (stage.load(std::memory_order_acquire) < value) {
    std::this_thread::yield();
  }
}

/// Torn pairs seen by the readers of a pair race: inside a transaction body
/// (every attempt, committed or not) and in committed results.
struct Tears {
  long in_body = 0;
  long committed = 0;
};

/// Writers update (k, k+kHalf) to the same value in one transaction;
/// readers read both in one transaction and count every inequality, inside
/// the body and after commit.
Tears run_pair_race(MapUnderTest& map, int writer_rounds,
                    int reader_threads) {
  for (long k = 0; k < kHalf; ++k) {
    map.atomically([&](MapView& m) {
      m.put(k, 0);
      m.put(k + kHalf, 0);
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<long> in_body{0};
  std::atomic<long> committed{0};
  std::thread writer([&] {
    for (long round = 1; round <= writer_rounds; ++round) {
      const long k = round % kHalf;
      map.atomically([&](MapView& m) {
        m.put(k, round);
        m.put(k + kHalf, round);
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      // Floor of 128 iterations: on a single-core box the writer can finish
      // before a reader is ever scheduled, and a zero-read race tests nothing.
      std::uint64_t i = 0;
      while (i < 128 || !stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(i++ % kHalf);
        long a = -1, b = -1;
        map.atomically([&](MapView& m) {
          a = m.get(k).value_or(-1);
          b = m.get(k + kHalf).value_or(-1);
          if (a != b) in_body.fetch_add(1, std::memory_order_relaxed);
        });
        if (a != b) committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  return {in_body.load(), committed.load()};
}

/// The first key after `from` that `pred` accepts.
template <class Pred>
long find_key(long from, Pred&& pred) {
  long k = from + 1;
  while (!pred(k)) ++k;
  return k;
}

// The hole tests' map: M=256 CA slots over a 64-stripe base, as in the
// matrix's eager_opt_eagerall config, so keys can share a base stripe
// while sitting on different CA slots.
using HoleLap = core::OptimisticLap<long>;
using HoleMap = core::TxnHashMap<long, long, HoleLap>;
constexpr std::size_t kCaSlots = 256;
constexpr std::size_t kStripes = 64;

std::size_t stripe_of(long k) { return proust::Hash<long>{}(k) % kStripes; }
std::size_t slot_of(long k) { return proust::Hash<long>{}(k) % kCaSlots; }

}  // namespace

TEST(ReadFastPath, PairConsistencyAcrossConfigs) {
  for (const auto& cfg : opaque_map_configs()) {
    auto map = cfg.make();
    const Tears t =
        run_pair_race(*map, /*writer_rounds=*/300, /*reader_threads=*/2);
    EXPECT_EQ(t.in_body, 0) << cfg.name;
    EXPECT_EQ(t.committed, 0) << cfg.name;
  }
}

TEST(ReadFastPath, ReadYourWritesThroughAdmission) {
  // The unlocked path must never serve a read that has a pending
  // transactional write behind it: eager wrappers have already mutated the
  // base (and hold the CA slot's lock, so the guarded read runs under it);
  // lazy wrappers route engaged-log reads down the locked path. Either way
  // the transaction sees its own effects.
  for (const auto& cfg : all_map_configs()) {
    auto map = cfg.make();
    map->atomically([&](MapView& m) {
      EXPECT_EQ(m.put(7, 70), std::nullopt) << cfg.name;
      EXPECT_EQ(m.get(7), 70) << cfg.name;
      EXPECT_TRUE(m.contains(7)) << cfg.name;
      EXPECT_EQ(m.remove(7), 70) << cfg.name;
      EXPECT_EQ(m.get(7), std::nullopt) << cfg.name;
      EXPECT_EQ(m.put(7, 71), std::nullopt) << cfg.name;
      EXPECT_EQ(m.get(7), 71) << cfg.name;
    });
    EXPECT_EQ(map->get1(7), 71) << cfg.name;
  }
}

TEST(ReadFastPath, StatsRecordHitsWhenEnabled) {
  // The rule's unlocked side: reads take the unlocked path and count hits.
  // Collect every config that records one rather than trusting
  // reads_unlocked(): across the matrix it must be the eager map on
  // EagerAll alone.
  std::vector<std::string> hits;
  for (const auto& cfg : opaque_map_configs()) {
    auto map = cfg.make();
    map->put1(1, 10);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(map->get1(1), 10) << cfg.name;
    if (map->stats().fastpath_hits > 0) hits.push_back(cfg.name);
  }
  EXPECT_EQ(hits, std::vector<std::string>{"eager_opt_eagerall"});
}

TEST(ReadFastPath, StatsSilentWhenDisabled) {
  // Everywhere else reads take the lock and never run a guarded read, the
  // lazy wrappers on EagerAll included.
  int lazy_eagerall = 0;
  for (const auto& cfg : opaque_map_configs()) {
    auto map = cfg.make();
    if (reads_unlocked(cfg, *map)) continue;
    if (lazy_on_eagerall(cfg, *map)) ++lazy_eagerall;
    map->put1(1, 10);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(map->get1(1), 10) << cfg.name;
    const auto s = map->stats();
    EXPECT_EQ(s.fastpath_hits, 0u) << cfg.name;
  }
  EXPECT_EQ(lazy_eagerall, 2) << "lazy_memo_eagerall and lazy_snap_eagerall";
}

TEST(ReadFastPath, PairConsistencyUnderAggressiveChaos) {
  // The full chaos column: spurious aborts, forced LAP timeouts, injected
  // delays at every point, guarded reads' TxnRead included, racing the pair
  // invariant.
  for (const auto& cfg : opaque_map_configs()) {
    if (cfg.name.rfind("baseline_", 0) == 0) continue;
    stm::ChaosPolicy chaos(stm::ChaosConfig::aggressive(7));
    chaos.install_lock_hook();
    stm::StmOptions o;
    o.chaos = &chaos;
    {
      auto map = cfg.make_with(o);
      const Tears t =
          run_pair_race(*map, /*writer_rounds=*/150, /*reader_threads=*/2);
      EXPECT_EQ(t.in_body, 0) << cfg.name << " seed=" << chaos.seed();
      EXPECT_EQ(t.committed, 0) << cfg.name << " seed=" << chaos.seed();
    }
    chaos.remove_lock_hook();
    EXPECT_EQ(chaos.leaks(), 0u) << cfg.name << " seed=" << chaos.seed();
  }
}

TEST(ReadFastPath, OrderedMapPairConsistency) {
  // EagerAll: an eager/optimistic wrapper is opaque only on an STM that
  // detects read/write conflicts eagerly (Thm 5.2, footnote 3); on Lazy a
  // committed reader may see a torn pair with or without the unlocked path.
  using OptLap = core::OptimisticLap<std::size_t, core::StripeHasher>;
  stm::Stm stm(stm::Mode::EagerAll);
  OptLap lap(stm, 64);
  core::TxnOrderedMap<long, OptLap> map(lap, 0, 1023, 64);
  for (long k = 0; k < kHalf; ++k) {
    stm.atomically([&](stm::Txn& tx) {
      map.put(tx, k, 0);
      map.put(tx, k + kHalf, 0);
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<long> in_body{0};
  std::atomic<long> committed{0};
  std::thread writer([&] {
    for (long round = 1; round <= 300; ++round) {
      const long k = round % kHalf;
      stm.atomically([&](stm::Txn& tx) {
        map.put(tx, k, round);
        map.put(tx, k + kHalf, round);
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    // Iteration floor as in run_pair_race: guarantee reads happen even when
    // the writer wins every scheduling race on a small machine.
    std::uint64_t i = 0;
    while (i < 128 || !stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(i++ % kHalf);
      long a = -1, b = -1;
      stm.atomically([&](stm::Txn& tx) {
        a = map.get(tx, k).value_or(-1);
        b = map.get(tx, k + kHalf).value_or(-1);
        if (a != b) in_body.fetch_add(1, std::memory_order_relaxed);
      });
      if (a != b) committed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(in_body.load(), 0);
  EXPECT_EQ(committed.load(), 0);
  EXPECT_GT(stm.stats().snapshot().fastpath_hits, 0u);
}

TEST(ReadFastPath, PQueueMinRacesChurn) {
  // Churn keeps values inside [1, 1000] with 1000 permanently present; an
  // unlocked min() must always see something in that window.
  using PqLap = core::OptimisticLap<core::PQueueState, core::PQueueStateHasher>;
  stm::Stm stm(stm::Mode::EagerAll);
  PqLap lap(stm, 2);
  core::TxnPriorityQueue<long, PqLap> pq(lap);
  pq.unsafe_insert(1000);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread writer([&] {
    for (long round = 0; round < 300; ++round) {
      const long v = 1 + (round * 13) % 999;
      stm.atomically([&](stm::Txn& tx) { pq.insert(tx, v); });
      stm.atomically([&](stm::Txn& tx) { (void)pq.remove_min(tx); });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    std::uint64_t i = 0;
    while (i < 128 || !stop.load(std::memory_order_acquire)) {
      ++i;
      std::optional<long> m;
      stm.atomically([&](stm::Txn& tx) { m = pq.min(tx); });
      if (!m || *m < 1 || *m > 1000) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(stm.stats().snapshot().fastpath_hits, 0u);
}

TEST(ReadFastPath, TwoPinsOnOneStripeKeepItUnstable) {
  // Two writers on different CA slots of one base stripe stay in flight
  // with their puts applied; a reader of one writer's key must not return
  // the uncommitted value. It finds that key's slot locked and retries
  // until the writer has rolled back. (The name is the earlier protocol's:
  // there both writers pinned the stripe's sequence word, and with one
  // parity bit the two pins read even and the reader committed the 99.)
  stm::Stm stm(stm::Mode::EagerAll);
  HoleLap lap(stm, kCaSlots);
  HoleMap map(lap, kStripes);
  const long k1 = 1;
  const long k2 = find_key(k1, [&](long k) {
    return stripe_of(k) == stripe_of(k1) && slot_of(k) != slot_of(k1);
  });
  map.unsafe_put(k1, 1);
  map.unsafe_put(k2, 2);

  std::atomic<int> in_flight{0};
  std::atomic<bool> reader_done{false};
  struct Bail {};
  const auto writer = [&](long key) {
    bool counted = false;
    EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                   map.put(tx, key, 99);
                   if (!counted) {
                     counted = true;
                     in_flight.fetch_add(1, std::memory_order_acq_rel);
                   }
                   const auto deadline = std::chrono::steady_clock::now() + 200ms;
                   while (!reader_done.load(std::memory_order_acquire) &&
                          std::chrono::steady_clock::now() < deadline) {
                     std::this_thread::yield();
                   }
                   throw Bail{};
                 }),
                 Bail);
  };
  std::thread w1(writer, k1);
  std::thread w2(writer, k2);
  await(in_flight, 2);
  const long seen = stm.atomically(
      [&](stm::Txn& tx) { return map.get(tx, k1).value_or(-1); });
  reader_done.store(true, std::memory_order_release);
  w1.join();
  w2.join();
  EXPECT_EQ(seen, 1) << "the reader returned a value no transaction committed";
  EXPECT_EQ(stm.atomically([&](stm::Txn& tx) { return map.get(tx, k1); }), 1);
  EXPECT_EQ(stm.atomically([&](stm::Txn& tx) { return map.get(tx, k2); }), 2);
  EXPECT_EQ(map.check_invariants(), "");
}

TEST(ReadFastPath, LockedReadRevalidatesEarlierUnlockedReads) {
  // An attempt reads `a` unlocked; then a transaction commits a:=1, b:=1,
  // and a third holds a put of `c` (b's stripe, another CA slot) in flight.
  // The attempt's read of `b` must revalidate `a` before the body sees `b`:
  // b's slot is past the snapshot, and the extension finds a's entry moved.
  // (With per-stripe sequence words, c's put sent this read down a locked
  // path that checked nothing, and the body saw a=0, b=1.)
  stm::Stm stm(stm::Mode::EagerAll);
  HoleLap lap(stm, kCaSlots);
  HoleMap map(lap, kStripes);
  const long a = 1;
  const long b = find_key(a, [&](long k) {
    return stripe_of(k) != stripe_of(a) && slot_of(k) != slot_of(a);
  });
  const long c = find_key(b, [&](long k) {
    return stripe_of(k) == stripe_of(b) && slot_of(k) != slot_of(b) &&
           slot_of(k) != slot_of(a);
  });
  map.unsafe_put(a, 0);
  map.unsafe_put(b, 0);

  std::atomic<int> stage{0};
  std::atomic<bool> reader_done{false};
  long attempts = 0, mixes = 0;
  std::thread reader([&] {
    stm.atomically([&](stm::Txn& tx) {
      const long va = map.get(tx, a).value_or(-1);
      if (++attempts == 1) {
        stage.store(1, std::memory_order_release);
        await(stage, 3);  // a and b committed, c's put in flight
      }
      const long vb = map.get(tx, b).value_or(-1);
      if (va != vb) ++mixes;
    });
    reader_done.store(true, std::memory_order_release);
  });
  await(stage, 1);
  stm.atomically([&](stm::Txn& tx) {
    map.put(tx, a, 1);
    map.put(tx, b, 1);
  });
  struct Bail {};
  std::thread holder([&] {
    bool signalled = false;
    EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                   map.put(tx, c, 7);
                   if (!signalled) {
                     signalled = true;
                     stage.store(2, std::memory_order_release);
                   }
                   const auto deadline = std::chrono::steady_clock::now() + 200ms;
                   while (!reader_done.load(std::memory_order_acquire) &&
                          std::chrono::steady_clock::now() < deadline) {
                     std::this_thread::yield();
                   }
                   throw Bail{};
                 }),
                 Bail);
  });
  await(stage, 2);
  stage.store(3, std::memory_order_release);
  reader.join();
  holder.join();
  EXPECT_EQ(mixes, 0) << "the body saw a != b in some attempt";
  EXPECT_GE(attempts, 2);
  EXPECT_GE(stm.stats().snapshot().aborts[static_cast<std::size_t>(
                stm::AbortReason::ValidationFailed)],
            1u);
  EXPECT_EQ(map.check_invariants(), "");
}

TEST(ReadFastPath, PessimisticReadRevalidatesEarlierUnlockedReads) {
  // One EagerAll transaction reads a map over the optimistic LAP (unlocked)
  // and then a map over the pessimistic LAP (through its abstract read
  // lock, which touches no STM location). A transaction that commits a:=1
  // in the first and b:=1 in the second between the two reads must not
  // leave the body with a=0, b=1: the abstract-lock acquisition
  // revalidates the unlocked read before the second map is read.
  using PessLap = core::PessimisticLap<long>;
  stm::Stm stm(stm::Mode::EagerAll);
  HoleLap opt_lap(stm, kCaSlots);
  PessLap pess_lap(stm, kStripes);
  HoleMap a(opt_lap, kStripes);
  core::TxnHashMap<long, long, PessLap> b(pess_lap, kStripes);
  a.unsafe_put(1, 0);
  b.unsafe_put(1, 0);

  std::atomic<int> stage{0};
  long attempts = 0, mixes = 0;
  std::thread reader([&] {
    stm.atomically([&](stm::Txn& tx) {
      const long va = a.get(tx, 1).value_or(-1);
      if (++attempts == 1) {
        stage.store(1, std::memory_order_release);
        await(stage, 2);  // both maps committed
      }
      const long vb = b.get(tx, 1).value_or(-1);
      if (va != vb) ++mixes;
    });
  });
  await(stage, 1);
  stm.atomically([&](stm::Txn& tx) {
    a.put(tx, 1, 1);
    b.put(tx, 1, 1);
  });
  stage.store(2, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mixes, 0) << "the body saw a != b in some attempt";
  EXPECT_EQ(attempts, 2);
}

TEST(ReadFastPath, RolledBackWriteMovesTheGuard) {
  // A guarded read whose op spans a writer's lock of the guard, its
  // in-place base mutation and its rollback. The rollback restores the base
  // and releases the guard at a fresh version, so the read's re-check finds
  // the orec moved and re-runs the op. Released at its displaced version,
  // the orec word would equal the one the read loaded first, and the read
  // would return the 99 that the rollback took back.
  stm::Stm stm(stm::Mode::EagerAll);
  stm::Var<std::uint64_t> guard;
  std::atomic<long> base{1};
  std::atomic<int> stage{0};
  struct Bail {};
  std::thread writer([&] {
    await(stage, 1);  // the reader loaded the guard's orec
    EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                   tx.write(guard, std::uint64_t{7});
                   base.store(99);
                   tx.on_abort([&] { base.store(1); });
                   stage.store(2, std::memory_order_release);
                   await(stage, 3);  // the reader copied the 99
                   throw Bail{};
                 }),
                 Bail);
    stage.store(4, std::memory_order_release);
  });
  int ops = 0;
  const long seen = stm.atomically([&](stm::Txn& tx) {
    return tx.read_guarded(guard, [&] {
      if (++ops > 1) return base.load();
      stage.store(1, std::memory_order_release);
      await(stage, 2);  // the writer holds the guard, base is 99
      const long v = base.load();
      stage.store(3, std::memory_order_release);
      await(stage, 4);  // the writer rolled back
      return v;
    });
  });
  writer.join();
  EXPECT_EQ(seen, 1) << "the read returned a value the rollback took back";
  EXPECT_EQ(ops, 2);
  EXPECT_EQ(guard.unsafe_ref(), 0u);
}
