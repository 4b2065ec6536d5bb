// Tests for the lazy concurrent skip list (the ordered-map base).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "containers/concurrent_skip_list.hpp"

using proust::containers::ConcurrentSkipList;

TEST(ConcurrentSkipList, PutGetRoundTrip) {
  ConcurrentSkipList<long, long> m;
  EXPECT_EQ(m.put(5, 50), std::nullopt);
  EXPECT_EQ(m.get(5), 50);
  EXPECT_EQ(m.put(5, 51), 50);
  EXPECT_EQ(m.get(5), 51);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ConcurrentSkipList, RemoveSemantics) {
  ConcurrentSkipList<long, long> m;
  m.put(1, 10);
  EXPECT_EQ(m.remove(1), 10);
  EXPECT_EQ(m.remove(1), std::nullopt);
  EXPECT_EQ(m.get(1), std::nullopt);
  EXPECT_TRUE(m.empty());
}

TEST(ConcurrentSkipList, ManyKeysSortedTraversal) {
  ConcurrentSkipList<long, long> m;
  proust::Xoshiro256 rng(5);
  std::map<long, long> reference;
  for (int i = 0; i < 3000; ++i) {
    const long k = static_cast<long>(rng.below(10000));
    reference[k] = i;
    m.put(k, i);
  }
  std::vector<long> keys;
  m.range_for_each(0, 9999, [&](long k, long v) {
    keys.push_back(k);
    EXPECT_EQ(reference.at(k), v);
  });
  EXPECT_EQ(keys.size(), reference.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ConcurrentSkipList, RangeForEachRespectsBounds) {
  ConcurrentSkipList<long, long> m;
  for (long k = 0; k < 100; ++k) m.put(k, k);
  long count = 0, sum = 0;
  m.range_for_each(10, 19, [&](long k, long v) {
    EXPECT_GE(k, 10);
    EXPECT_LE(k, 19);
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sum, 145);
}

TEST(ConcurrentSkipList, RangeForEachEmptyRange) {
  ConcurrentSkipList<long, long> m;
  m.put(5, 5);
  long count = 0;
  m.range_for_each(10, 20, [&](long, long) { ++count; });
  EXPECT_EQ(count, 0);
  m.range_for_each(6, 4, [&](long, long) { ++count; });  // inverted bounds
  EXPECT_EQ(count, 0);
}

TEST(ConcurrentSkipList, CeilingKey) {
  ConcurrentSkipList<long, long> m;
  for (long k : {10L, 20L, 30L}) m.put(k, k);
  EXPECT_EQ(m.ceiling_key(5), 10);
  EXPECT_EQ(m.ceiling_key(10), 10);
  EXPECT_EQ(m.ceiling_key(11), 20);
  EXPECT_EQ(m.ceiling_key(31), std::nullopt);
}

TEST(ConcurrentSkipList, ReinsertAfterRemove) {
  ConcurrentSkipList<long, long> m;
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(m.put(7, round), std::nullopt);
    EXPECT_EQ(m.remove(7), round);
  }
  EXPECT_TRUE(m.empty());
}

TEST(ConcurrentSkipList, ConcurrentDisjointInserts) {
  ConcurrentSkipList<long, long> m;
  constexpr int kThreads = 4, kPerThread = 3000;
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i) {
        m.put(t + i * kThreads, i);  // interleaved key spaces
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  long count = 0;
  long prev = -1;
  bool sorted = true;
  m.range_for_each(0, kThreads * kPerThread, [&](long k, long) {
    sorted = sorted && k > prev;
    prev = k;
    ++count;
  });
  EXPECT_TRUE(sorted);
  EXPECT_EQ(count, long{kThreads} * kPerThread);
  EXPECT_EQ(m.check_invariants(), "");
}

TEST(ConcurrentSkipList, ConcurrentPutRemoveSameKeysConverge) {
  ConcurrentSkipList<long, long> m;
  constexpr int kThreads = 4;
  std::atomic<long> net{0};
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 41);
      for (int i = 0; i < 4000; ++i) {
        const long k = static_cast<long>(rng.below(64));
        if (rng.uniform() < 0.5) {
          if (!m.put(k, i)) net.fetch_add(1);
        } else {
          if (m.remove(k)) net.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(m.size(), static_cast<std::size_t>(net.load()));
  long count = 0;
  m.range_for_each(0, 63, [&](long, long) { ++count; });
  EXPECT_EQ(count, net.load());
  EXPECT_EQ(m.check_invariants(), "");
}

TEST(ConcurrentSkipList, ConcurrentReadersDuringUpdates) {
  ConcurrentSkipList<long, long> m;
  for (long k = 0; k < 128; k += 2) m.put(k, k);
  std::atomic<bool> stop{false};
  std::atomic<long> anomalies{0};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      const long k = (i * 2 + 1) % 128;  // odd keys churn
      if (i % 2 == 0) {
        m.put(k, k);
      } else {
        m.remove(k);
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      // Even keys are stable: they must always be found with their value.
      for (long k = 0; k < 128; k += 2) {
        const auto v = m.get(k);
        if (!v || *v != k) anomalies.fetch_add(1);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(m.check_invariants(), "");
}
