// Tests for the copy-on-write heap (the paper's new snapshot-able priority
// queue base) and the PriorityBlockingQueue stand-in.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "containers/blocking_pqueue.hpp"
#include "containers/cow_heap.hpp"

using proust::containers::BlockingPriorityQueue;
using proust::containers::CowHeap;

TEST(CowHeap, RemovesInSortedOrder) {
  CowHeap<int> h;
  proust::Xoshiro256 rng(3);
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) {
    const int v = static_cast<int>(rng.below(1000));
    values.push_back(v);
    h.insert(v);
  }
  std::sort(values.begin(), values.end());
  for (int expected : values) {
    auto got = h.remove_min();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_EQ(h.remove_min(), std::nullopt);
  EXPECT_TRUE(h.empty());
}

TEST(CowHeap, PeekDoesNotRemove) {
  CowHeap<int> h;
  h.insert(5);
  h.insert(3);
  EXPECT_EQ(h.peek_min(), 3);
  EXPECT_EQ(h.peek_min(), 3);
  EXPECT_EQ(h.size(), 2u);
}

TEST(CowHeap, EmptyBehaviour) {
  CowHeap<int> h;
  EXPECT_EQ(h.peek_min(), std::nullopt);
  EXPECT_EQ(h.remove_min(), std::nullopt);
  EXPECT_FALSE(h.contains(1));
  EXPECT_EQ(h.size(), 0u);
}

TEST(CowHeap, ContainsFindsPresentValuesOnly) {
  CowHeap<int> h;
  for (int v : {8, 1, 9, 4}) h.insert(v);
  EXPECT_TRUE(h.contains(8));
  EXPECT_TRUE(h.contains(1));
  EXPECT_FALSE(h.contains(5));
  h.remove_min();  // removes 1
  EXPECT_FALSE(h.contains(1));
}

TEST(CowHeap, DuplicatesSupported) {
  CowHeap<int> h;
  h.insert(2);
  h.insert(2);
  h.insert(2);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.remove_min(), 2);
  EXPECT_EQ(h.remove_min(), 2);
  EXPECT_TRUE(h.contains(2));
}

TEST(CowHeap, SnapshotIsolation) {
  CowHeap<int> h;
  h.insert(10);
  h.insert(20);
  auto snap = h.snapshot();
  h.insert(1);
  h.remove_min();  // removes 1 from base
  EXPECT_EQ(snap.peek_min(), 10);
  snap.insert(5);
  EXPECT_EQ(snap.remove_min(), 5);
  EXPECT_EQ(snap.remove_min(), 10);
  EXPECT_EQ(snap.size(), 1u);
  // Base unaffected by snapshot mutation.
  EXPECT_EQ(h.peek_min(), 10);
  EXPECT_EQ(h.size(), 2u);
}

TEST(CowHeap, SnapshotForEachCountsElements) {
  CowHeap<int> h;
  for (int i = 0; i < 100; ++i) h.insert(i);
  auto snap = h.snapshot();
  int count = 0;
  snap.for_each([&](int) { ++count; });
  EXPECT_EQ(count, 100);
}

TEST(CowHeap, LargeLeftSpineTraversalDoesNotOverflow) {
  CowHeap<long> h;
  for (long i = 200000; i > 0; --i) h.insert(i);  // adversarial order
  EXPECT_TRUE(h.contains(1));
  EXPECT_FALSE(h.contains(0));
  long count = 0;
  h.for_each([&](long) { ++count; });
  EXPECT_EQ(count, 200000);
}

TEST(CowHeap, ConcurrentInsertersAllLand) {
  CowHeap<long> h;
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (long i = 0; i < kPerThread; ++i) h.insert(t * kPerThread + i);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(h.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.peek_min(), 0);
  EXPECT_EQ(h.check_invariants(), "");
}

TEST(CowHeap, ConcurrentMixedDrainIsExact) {
  CowHeap<long> h;
  constexpr int kThreads = 4, kPerThread = 1500;
  std::atomic<long> removed_count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (long i = 0; i < kPerThread; ++i) {
        h.insert(t * kPerThread + i);
        if (i % 2 == 1) {
          if (h.remove_min()) removed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(h.size() + static_cast<std::size_t>(removed_count.load()),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.check_invariants(), "");
}

TEST(BlockingPriorityQueue, PollsInSortedOrder) {
  BlockingPriorityQueue<int> q;
  for (int v : {5, 1, 4, 2, 3}) q.add(v);
  for (int expected : {1, 2, 3, 4, 5}) EXPECT_EQ(q.poll(), expected);
  EXPECT_EQ(q.poll(), std::nullopt);
}

TEST(BlockingPriorityQueue, PeekMatchesPoll) {
  BlockingPriorityQueue<int> q;
  q.add(7);
  q.add(3);
  EXPECT_EQ(q.peek(), 3);
  EXPECT_EQ(q.poll(), 3);
  EXPECT_EQ(q.peek(), 7);
}

TEST(BlockingPriorityQueue, RemoveOneRemovesExactlyOne) {
  BlockingPriorityQueue<int> q;
  q.add(2);
  q.add(2);
  q.add(5);
  EXPECT_TRUE(q.remove_one(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.contains(2));
  EXPECT_TRUE(q.remove_one(2));
  EXPECT_FALSE(q.contains(2));
  EXPECT_FALSE(q.remove_one(2));
}

TEST(BlockingPriorityQueue, HeapInvariantSurvivesRemoveOne) {
  BlockingPriorityQueue<int> q;
  proust::Xoshiro256 rng(11);
  std::multiset<int> reference;
  for (int i = 0; i < 300; ++i) {
    const int v = static_cast<int>(rng.below(50));
    q.add(v);
    reference.insert(v);
  }
  for (int i = 0; i < 100; ++i) {
    const int v = static_cast<int>(rng.below(50));
    const bool removed = q.remove_one(v);
    const auto it = reference.find(v);
    EXPECT_EQ(removed, it != reference.end());
    if (it != reference.end()) reference.erase(it);
  }
  while (!reference.empty()) {
    auto got = q.poll();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *reference.begin());
    reference.erase(reference.begin());
  }
}

TEST(BlockingPriorityQueue, ConcurrentAddPollConserves) {
  BlockingPriorityQueue<long> q;
  constexpr int kThreads = 4, kPerThread = 3000;
  std::atomic<long> polled{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (long i = 0; i < kPerThread; ++i) {
        q.add(t * kPerThread + i);
        if (i % 3 == 2 && q.poll()) polled.fetch_add(1);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(q.size() + static_cast<std::size_t>(polled.load()),
            static_cast<std::size_t>(kThreads) * kPerThread);
}
