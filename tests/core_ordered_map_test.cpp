// Tests for the Proustian ordered map with the interval conflict
// abstraction (§1's non-intersecting-range commutativity, realized).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/lap.hpp"
#include "core/txn_ordered_map.hpp"
#include "stm/stm.hpp"

using namespace proust;
using OptLap = core::OptimisticLap<std::size_t, core::StripeHasher>;
using PessLap = core::PessimisticLap<std::size_t, core::StripeHasher>;

namespace {
struct Fixture {
  static constexpr long kMin = 0, kMax = 1023;
  static constexpr std::size_t kStripes = 64;
  stm::Stm stm{stm::Mode::EagerAll};
  OptLap lap{stm, kStripes};
  core::TxnOrderedMap<long, OptLap> map{lap, kMin, kMax, kStripes};
};
}  // namespace

TEST(TxnOrderedMap, PointOpsRoundTrip) {
  Fixture f;
  f.stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(f.map.put(tx, 10, 100), std::nullopt);
    EXPECT_EQ(f.map.get(tx, 10), 100);
    EXPECT_EQ(f.map.put(tx, 10, 101), 100);
    EXPECT_EQ(f.map.remove(tx, 10), 101);
    EXPECT_FALSE(f.map.contains(tx, 10));
  });
}

TEST(TxnOrderedMap, RangeSumAndCount) {
  Fixture f;
  for (long k = 0; k < 100; ++k) f.map.unsafe_put(k, 1);
  f.stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(f.map.range_sum(tx, 0, 99), 100);
    EXPECT_EQ(f.map.range_sum(tx, 10, 19), 10);
    EXPECT_EQ(f.map.range_count(tx, 50, 54), 5);
    EXPECT_EQ(f.map.range_sum(tx, 200, 300), 0);
  });
}

TEST(TxnOrderedMap, RangeSeesOwnTxnUpdates) {
  // Eager updates: the base is mutated immediately, so a later range scan
  // within the same transaction observes the earlier puts.
  Fixture f;
  f.stm.atomically([&](stm::Txn& tx) {
    f.map.put(tx, 5, 50);
    f.map.put(tx, 6, 60);
    EXPECT_EQ(f.map.range_sum(tx, 0, 10), 110);
  });
}

TEST(TxnOrderedMap, CeilingKey) {
  Fixture f;
  f.map.unsafe_put(100, 1);
  f.map.unsafe_put(200, 2);
  f.stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(f.map.ceiling_key(tx, 50), 100);
    EXPECT_EQ(f.map.ceiling_key(tx, 150), 200);
    EXPECT_EQ(f.map.ceiling_key(tx, 201), std::nullopt);
  });
}

TEST(TxnOrderedMap, AbortRollsBackPointUpdates) {
  Fixture f;
  f.map.unsafe_put(7, 70);
  EXPECT_THROW(f.stm.atomically([&](stm::Txn& tx) {
                 f.map.put(tx, 7, -1);
                 f.map.put(tx, 8, -1);
                 f.map.remove(tx, 7);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  f.stm.atomically([&](stm::Txn& tx) {
    EXPECT_EQ(f.map.get(tx, 7), 70);
    EXPECT_FALSE(f.map.contains(tx, 8));
    EXPECT_EQ(f.map.range_sum(tx, 0, 100), 70);
  });
  EXPECT_EQ(f.map.size(), 1);
}

TEST(TxnOrderedMap, DisjointRangesDoNotConflict) {
  // The §1 claim, observable through abort statistics: writers in one key
  // range and range queries over a disjoint range never conflict.
  Fixture f;
  for (long k = 0; k < 1024; ++k) f.map.unsafe_put(k, 1);
  f.stm.stats().reset();
  std::barrier sync(2);
  std::thread writer([&] {
    sync.arrive_and_wait();
    for (int i = 0; i < 2000; ++i) {
      // Writes confined to [0, 127] — stripes 0..7 of 64.
      f.stm.atomically(
          [&](stm::Txn& tx) { f.map.put(tx, i % 128, i); });
    }
  });
  std::thread scanner([&] {
    sync.arrive_and_wait();
    for (int i = 0; i < 300; ++i) {
      // Scans confined to [512, 1023] — stripes 32..63.
      f.stm.atomically(
          [&](stm::Txn& tx) { (void)f.map.range_sum(tx, 512, 1023); });
    }
  });
  writer.join();
  scanner.join();
  EXPECT_EQ(f.stm.stats().snapshot().total_aborts(), 0u)
      << "disjoint ranges must commute (no conflicts)";
}

TEST(TxnOrderedMap, OverlappingRangeAndWriteConflictIsDetected) {
  // Orchestrated on the Lazy STM (on EagerAll the writer would simply yield
  // to the scanner's reader bits): a scanner whose range was invalidated by
  // a conflicting committed write must retry — it never observes a torn
  // range.
  stm::Stm stm(stm::Mode::Lazy);
  OptLap lap(stm, Fixture::kStripes);
  core::TxnOrderedMap<long, OptLap> map(lap, Fixture::kMin, Fixture::kMax,
                                        Fixture::kStripes);
  for (long k = 0; k < 10; ++k) map.unsafe_put(k, 10);
  std::atomic<int> stage{0};
  long sum1 = -1, sum2 = -1;
  int attempts = 0;
  std::thread scanner([&] {
    stm.atomically([&](stm::Txn& tx) {
      ++attempts;
      sum1 = map.range_sum(tx, 0, 9);
      if (attempts == 1) {
        stage.store(1);
        while (stage.load() < 2) std::this_thread::yield();
      }
      sum2 = map.range_sum(tx, 0, 9);
    });
  });
  while (stage.load() < 1) std::this_thread::yield();
  stm.atomically([&](stm::Txn& tx) { map.put(tx, 5, 1000); });
  stage.store(2);
  scanner.join();
  EXPECT_EQ(sum1, sum2) << "a transaction must not observe a torn range";
  EXPECT_EQ(attempts, 2) << "the invalidated first attempt must retry";
  EXPECT_EQ(sum1, 9 * 10 + 1000) << "the retry sees the committed write";
}

TEST(TxnOrderedMap, ConcurrentTransfersPreserveRangeSum) {
  Fixture f;
  constexpr long kKeys = 256, kInitial = 10;
  for (long k = 0; k < kKeys; ++k) f.map.unsafe_put(k, kInitial);
  constexpr int kThreads = 4;
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  std::atomic<long> bad_sums{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 71 + 9);
      for (int i = 0; i < 400; ++i) {
        const long a = static_cast<long>(rng.below(kKeys));
        const long b = static_cast<long>(rng.below(kKeys));
        if (a == b) continue;
        f.stm.atomically([&](stm::Txn& tx) {
          const long va = f.map.get(tx, a).value();
          if (va > 0) {
            f.map.put(tx, a, va - 1);
            f.map.put(tx, b, f.map.get(tx, b).value() + 1);
          }
        });
        if (i % 50 == 0) {
          const long total = f.stm.atomically(
              [&](stm::Txn& tx) { return f.map.range_sum(tx, 0, kKeys - 1); });
          if (total != kKeys * kInitial) bad_sums.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad_sums.load(), 0);
  const long total = f.stm.atomically(
      [&](stm::Txn& tx) { return f.map.range_sum(tx, 0, kKeys - 1); });
  EXPECT_EQ(total, kKeys * kInitial);
  EXPECT_EQ(f.map.check_invariants(), "");
}

TEST(TxnOrderedMap, PopFirstDrainsInKeyOrder) {
  Fixture f;
  for (long k : {30L, 10L, 20L}) f.map.unsafe_put(k, k * 10);
  f.stm.atomically([&](stm::Txn& tx) {
    auto a = f.map.pop_first(tx, 0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->first, 10);
    EXPECT_EQ(a->second, 100);
    auto b = f.map.pop_first(tx, 0);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->first, 20);
  });
  EXPECT_EQ(f.map.size(), 1);
}

TEST(TxnOrderedMap, PopFirstRespectsLowerBound) {
  Fixture f;
  f.map.unsafe_put(5, 50);
  f.map.unsafe_put(15, 150);
  f.stm.atomically([&](stm::Txn& tx) {
    auto got = f.map.pop_first(tx, 10);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->first, 15);
    EXPECT_EQ(f.map.pop_first(tx, 10), std::nullopt);
    EXPECT_TRUE(f.map.contains(tx, 5));
  });
}

TEST(TxnOrderedMap, ConcurrentPopFirstsClaimDistinctKeys) {
  Fixture f;
  constexpr long kN = 200;
  for (long k = 0; k < kN; ++k) f.map.unsafe_put(k, k);
  std::vector<std::vector<long>> claimed(4);
  std::barrier sync(4);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int i = 0; i < kN / 4; ++i) {
        const auto got = f.stm.atomically(
            [&](stm::Txn& tx) { return f.map.pop_first(tx, 0); });
        if (got) claimed[t].push_back(got->first);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::set<long> all;
  std::size_t count = 0;
  for (auto& v : claimed) {
    for (long k : v) {
      all.insert(k);
      ++count;
    }
  }
  EXPECT_EQ(all.size(), count) << "a key was claimed twice";
  EXPECT_EQ(static_cast<long>(count) + f.map.size(), kN);
  EXPECT_EQ(f.map.check_invariants(), "");
}

TEST(TxnOrderedMap, PessimisticLapVariantWorks) {
  stm::Stm stm(stm::Mode::Lazy);
  PessLap lap(stm, 64);
  core::TxnOrderedMap<long, PessLap> map(lap, 0, 1023, 64);
  for (long k = 0; k < 64; ++k) map.unsafe_put(k, 1);
  constexpr int kThreads = 4;
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 3);
      for (int i = 0; i < 300; ++i) {
        const long a = static_cast<long>(rng.below(64));
        const long b = static_cast<long>(rng.below(64));
        if (a == b) continue;
        stm.atomically([&](stm::Txn& tx) {
          const long va = map.get(tx, a).value();
          if (va > 0) {
            map.put(tx, a, va - 1);
            map.put(tx, b, map.get(tx, b).value() + 1);
          }
        });
      }
    });
  }
  for (auto& th : ts) th.join();
  const long total =
      stm.atomically([&](stm::Txn& tx) { return map.range_sum(tx, 0, 63); });
  EXPECT_EQ(total, 64);
  EXPECT_EQ(map.check_invariants(), "");
}
