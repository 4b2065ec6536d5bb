// Epoch-based reclamation: grace-period semantics of common/ebr.hpp and the
// skip list's migration onto it (nodes removed under churn are actually
// freed, not hoarded until destruction).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/ebr.hpp"
#include "common/rng.hpp"
#include "containers/concurrent_skip_list.hpp"
#include "stm/thread_registry.hpp"

using proust::ebr::EbrDomain;
using proust::ebr::Retired;
using proust::stm::ThreadRegistry;

namespace {

struct TestObj {
  Retired hook;  // first member: Retired* == TestObj*
  std::atomic<int>* freed;
};

void reclaim_obj(Retired* r, void* /*ctx*/) {
  auto* o = reinterpret_cast<TestObj*>(r);
  o->freed->fetch_add(1, std::memory_order_relaxed);
  delete o;
}

void retire_n(EbrDomain& d, unsigned slot, int n, std::atomic<int>* freed) {
  for (int i = 0; i < n; ++i) {
    auto* o = new TestObj{{}, freed};
    d.retire(slot, &o->hook, &reclaim_obj, nullptr);
  }
}

}  // namespace

TEST(EbrTest, QuiesceFreesEverythingRetired) {
  EbrDomain d(ThreadRegistry::kMaxSlots);
  std::atomic<int> freed{0};
  const unsigned slot = ThreadRegistry::slot();

  d.enter(slot);
  retire_n(d, slot, 100, &freed);
  d.exit(slot);

  d.quiesce();
  EXPECT_EQ(freed.load(), 100);
  EXPECT_EQ(d.pending(), 0u);
  EXPECT_EQ(d.retired_count(), 100u);
  EXPECT_EQ(d.reclaimed_count(), 100u);
}

TEST(EbrTest, AmortizedAdvanceReclaimsDuringChurn) {
  // No explicit quiesce: the every-kAdvanceEvery advance inside retire()
  // must reclaim on its own under sustained single-threaded churn.
  EbrDomain d(ThreadRegistry::kMaxSlots);
  std::atomic<int> freed{0};
  const unsigned slot = ThreadRegistry::slot();
  for (int i = 0; i < 4096; ++i) {
    d.enter(slot);
    retire_n(d, slot, 1, &freed);
    d.exit(slot);
  }
  EXPECT_GT(freed.load(), 0);
  EXPECT_GT(d.reclaimed_count(), 0u);
}

TEST(EbrTest, PinnedReaderBlocksReclamation) {
  EbrDomain d(ThreadRegistry::kMaxSlots);
  std::atomic<int> freed{0};
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};

  std::thread reader([&] {
    const unsigned slot = ThreadRegistry::slot();
    d.enter(slot);
    reader_pinned.store(true, std::memory_order_release);
    while (!release_reader.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    d.exit(slot);
  });
  while (!reader_pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  const unsigned slot = ThreadRegistry::slot();
  d.enter(slot);
  retire_n(d, slot, 50, &freed);
  d.exit(slot);

  // However hard we push, nothing retired while the reader is pinned may be
  // freed: the epoch cannot advance far enough past the reader's pin.
  for (int i = 0; i < 32; ++i) d.advance(slot);
  EXPECT_EQ(freed.load(), 0);
  EXPECT_EQ(d.pending(), 50u);

  release_reader.store(true, std::memory_order_release);
  reader.join();

  d.quiesce();
  EXPECT_EQ(freed.load(), 50);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(EbrTest, DestructorDrainsPendingNodes) {
  std::atomic<int> freed{0};
  {
    EbrDomain d(ThreadRegistry::kMaxSlots);
    const unsigned slot = ThreadRegistry::slot();
    d.enter(slot);
    retire_n(d, slot, 17, &freed);
    d.exit(slot);
    // No quiesce: destruction itself must not leak.
  }
  EXPECT_EQ(freed.load(), 17);
}

TEST(EbrTest, ConcurrentChurnIsRaceFreeAndReclaims) {
  // Several threads pinning, retiring and advancing at once — the TSan CI
  // job runs this to vet the epoch protocol's memory ordering.
  EbrDomain d(ThreadRegistry::kMaxSlots);
  std::atomic<int> freed{0};
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;

  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      const unsigned slot = ThreadRegistry::slot();
      sync.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        d.enter(slot);
        retire_n(d, slot, 1, &freed);
        d.exit(slot);
      }
    });
  }
  for (auto& th : ts) th.join();

  EXPECT_GT(freed.load(), 0);
  d.quiesce();
  EXPECT_EQ(freed.load(), kThreads * kIters);
  EXPECT_EQ(d.pending(), 0u);
}

// --- Skip-list migration ----------------------------------------------------

TEST(SkipListEbrTest, ChurnReclaimsRemovedNodes) {
  // The old scheme freed removed nodes only at destruction; under EBR a
  // sustained insert/remove workload must reclaim them while running.
  proust::containers::ConcurrentSkipList<long, long> list;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  constexpr long kKeys = 64;

  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      proust::Xoshiro256 rng(0xC0FFEE + static_cast<std::uint64_t>(t));
      sync.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        const long k = static_cast<long>(rng.below(kKeys));
        if ((rng() & 1) == 0) {
          list.put(k, k * 10);
        } else {
          list.remove(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();

  EXPECT_GT(list.reclaim_retired(), 0u) << "workload removed nothing";
  EXPECT_GT(list.reclaim_freed(), 0u)
      << "nodes were retired but none reclaimed during churn";

  // At quiescence every deferred free drains; memory use is bounded by
  // churn-in-flight, not by the total number of removals.
  list.quiesce();
  EXPECT_EQ(list.reclaim_pending(), 0u);

  // Sanity: the list still answers queries consistently after all that.
  std::size_t present = 0;
  for (long k = 0; k < kKeys; ++k) {
    if (list.contains(k)) {
      EXPECT_EQ(list.get(k), std::make_optional(k * 10));
      ++present;
    }
  }
  EXPECT_EQ(list.size(), present);
  EXPECT_EQ(list.check_invariants(), "");
}

TEST(SkipListEbrTest, RemoveWhileReadersTraverse) {
  // Readers iterate the full range while writers remove from under them;
  // EBR must keep every node a reader can still reach alive.
  proust::containers::ConcurrentSkipList<long, long> list;
  constexpr long kKeys = 256;
  for (long k = 0; k < kKeys; ++k) list.put(k, k);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      long last = -1;
      list.range_for_each(0, kKeys, [&](long k, long v) {
        EXPECT_GT(k, last) << "out-of-order visit";
        EXPECT_EQ(v, k);
        last = k;
      });
    }
  });

  proust::Xoshiro256 rng(0xDECADE);
  for (int round = 0; round < 200; ++round) {
    const long k = static_cast<long>(rng.below(kKeys));
    list.remove(k);
    list.put(k, k);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  list.quiesce();
  EXPECT_EQ(list.reclaim_pending(), 0u);
  EXPECT_EQ(list.check_invariants(), "");
}
