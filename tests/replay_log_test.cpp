// Direct tests for the replay-log / shadow-copy machinery (§4): memoizing
// logs with and without combining, snapshot logs, and the readOnly
// optimization (log created only on first update).
#include <gtest/gtest.h>

#include "common/bump_arena.hpp"
#include "containers/snapshot_hamt.hpp"
#include "containers/striped_hash_map.hpp"
#include "core/lap.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/replay_log.hpp"
#include "stm/stm.hpp"

using namespace proust;
using Base = containers::StripedHashMap<long, long>;

TEST(MemoReplayLog, GetReadsThroughToBase) {
  Base base;
  base.put(1, 10);
  BumpArena arena;
  core::MemoReplayLog<Base, long, long> log(base, false, arena);
  EXPECT_EQ(log.get(1), 10);
  EXPECT_EQ(log.get(2), std::nullopt);
}

TEST(MemoReplayLog, PendingUpdatesShadowBase) {
  Base base;
  base.put(1, 10);
  BumpArena arena;
  core::MemoReplayLog<Base, long, long> log(base, false, arena);
  EXPECT_EQ(log.put(1, 11), 10);
  EXPECT_EQ(log.get(1), 11);
  EXPECT_EQ(base.get(1), 10) << "base untouched before replay";
  EXPECT_EQ(log.remove(1), 11);
  EXPECT_EQ(log.get(1), std::nullopt);
  EXPECT_EQ(base.get(1), 10);
}

TEST(MemoReplayLog, ReplayAppliesOpsInOrder) {
  Base base;
  BumpArena arena;
  core::MemoReplayLog<Base, long, long> log(base, false, arena);
  log.put(1, 1);
  log.put(1, 2);
  log.remove(1);
  log.put(1, 3);
  log.put(2, 9);
  EXPECT_EQ(log.pending(), 5u);
  log.replay();
  EXPECT_EQ(base.get(1), 3);
  EXPECT_EQ(base.get(2), 9);
}

TEST(MemoReplayLog, CombiningReplaysOnlyFinalStates) {
  Base base;
  base.put(5, 50);
  BumpArena arena;
  core::MemoReplayLog<Base, long, long> log(base, true, arena);
  log.put(1, 1);
  log.put(1, 2);
  log.put(1, 3);
  log.remove(5);
  log.get(7);  // read-only key: must NOT be replayed
  EXPECT_EQ(log.pending(), 2u) << "one synthetic update per dirty key";
  log.replay();
  EXPECT_EQ(base.get(1), 3);
  EXPECT_EQ(base.get(5), std::nullopt);
  EXPECT_FALSE(base.contains(7));
}

TEST(MemoReplayLog, CombiningAndSequentialAgree) {
  Base base1, base2;
  for (long k = 0; k < 8; ++k) {
    base1.put(k, k);
    base2.put(k, k);
  }
  BumpArena arena;
  core::MemoReplayLog<Base, long, long> seq(base1, false, arena);
  core::MemoReplayLog<Base, long, long> comb(base2, true, arena);
  for (int i = 0; i < 100; ++i) {
    const long k = (i * 7) % 8;
    if (i % 3 == 0) {
      EXPECT_EQ(seq.put(k, i), comb.put(k, i));
    } else if (i % 3 == 1) {
      EXPECT_EQ(seq.remove(k), comb.remove(k));
    } else {
      EXPECT_EQ(seq.get(k), comb.get(k));
    }
  }
  seq.replay();
  comb.replay();
  for (long k = 0; k < 8; ++k) EXPECT_EQ(base1.get(k), base2.get(k));
}

TEST(SnapshotReplayLog, ShadowSeesSpeculativeState) {
  containers::SnapshotHamt<long, long> base;
  base.put(1, 10);
  BumpArena arena;
  stm::CommitFence fence;
  core::SnapshotReplayLog<containers::SnapshotHamt<long, long>> log(
      base, fence, arena);
  auto old = log.execute([](auto& t) { return t.put(1, 11); });
  EXPECT_EQ(old, 10);
  EXPECT_EQ(log.shadow().get(1), 11);
  EXPECT_EQ(base.get(1), 10);
  log.replay();
  EXPECT_EQ(base.get(1), 11);
}

TEST(SnapshotReplayLog, ReplayOrderPreserved) {
  containers::SnapshotHamt<long, long> base;
  BumpArena arena;
  stm::CommitFence fence;
  core::SnapshotReplayLog<containers::SnapshotHamt<long, long>> log(
      base, fence, arena);
  log.execute([](auto& t) { return t.put(1, 1); });
  log.execute([](auto& t) { return t.remove(1); });
  log.execute([](auto& t) { return t.put(1, 2); });
  EXPECT_EQ(log.pending(), 3u);
  log.replay();
  EXPECT_EQ(base.get(1), 2);
}

TEST(LazyHashMap, ReadOnlyTxnCreatesNoLog) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 64);
  core::LazyHashMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);
  stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(map.get(tx, 1), 10);
    EXPECT_FALSE(tx.has_local(nullptr));  // trivially true; real check below
  });
  // The readOnly path is observable through stats: a read-only lazy-map txn
  // performs only the CA read, no CA write.
  stm.stats().reset();
  stm.atomically([&](stm::Txn& tx) { map.get(tx, 1); });
  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.writes, 0u);
  EXPECT_GE(s.reads, 1u);
}

TEST(LazyTrieMap, SnapshotTakenLazilyOnFirstUpdate) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 64);
  core::LazyTrieMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);
  stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(map.get(tx, 1), 10);  // read-only: no snapshot yet
    map.put(tx, 2, 20);             // first update: snapshot now
    EXPECT_EQ(map.get(tx, 2), 20);  // served from the shadow
    EXPECT_EQ(map.get(tx, 1), 10);
  });
  EXPECT_EQ(stm.atomically([&](stm::Txn& tx) { return map.get(tx, 2); }), 20);
}

TEST(LazyHashMap, CombiningProducesSameResultsAsSequential) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 64);
  core::LazyHashMap<long, long, core::OptimisticLap<long>> seq(lap, false);
  core::LazyHashMap<long, long, core::OptimisticLap<long>> comb(lap, true);
  stm.atomically([&](stm::Txn& tx) {
    for (int i = 0; i < 60; ++i) {
      const long k = i % 6;
      auto a = seq.put(tx, k, i);
      auto b = comb.put(tx, k, i);
      EXPECT_EQ(a, b);
      if (i % 4 == 3) {
        EXPECT_EQ(seq.remove(tx, k), comb.remove(tx, k));
      }
    }
  });
  for (long k = 0; k < 6; ++k) {
    const auto a =
        stm.atomically([&](stm::Txn& tx) { return seq.get(tx, k); });
    const auto b =
        stm.atomically([&](stm::Txn& tx) { return comb.get(tx, k); });
    EXPECT_EQ(a, b);
  }
}
