// Concurrency tests run against every transactional map configuration:
// serializability-style invariants under real contention.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "map_configs.hpp"

using namespace proust::testing;

namespace {
constexpr int kThreads = 4;

class CoreMapConcurrentTest : public ::testing::TestWithParam<MapConfig> {
 protected:
  void SetUp() override { map_ = GetParam().make(); }
  // Every case ends with its threads joined: the base must be sound.
  void TearDown() override { EXPECT_EQ(map_->check_invariants(), ""); }

  template <class Body>
  void run_threads(int n, Body&& body) {
    std::barrier sync(n);
    std::vector<std::thread> ts;
    for (int t = 0; t < n; ++t) {
      ts.emplace_back([&, t] {
        sync.arrive_and_wait();
        body(t);
      });
    }
    for (auto& th : ts) th.join();
  }

  std::unique_ptr<MapUnderTest> map_;
};
}  // namespace

TEST_P(CoreMapConcurrentTest, TransfersPreserveTotal) {
  constexpr long kAccounts = 12;
  constexpr long kInitial = 100;
  for (long k = 0; k < kAccounts; ++k) map_->put1(k, kInitial);

  run_threads(kThreads, [&](int t) {
    proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 31 + 5);
    for (int i = 0; i < 800; ++i) {
      const long from = static_cast<long>(rng.below(kAccounts));
      const long to = static_cast<long>(rng.below(kAccounts));
      if (from == to) continue;
      map_->atomically([&](MapView& m) {
        const long f = m.get(from).value();
        if (f > 0) {
          m.put(from, f - 1);
          m.put(to, m.get(to).value() + 1);
        }
      });
    }
  });

  long total = 0;
  for (long k = 0; k < kAccounts; ++k) total += map_->get1(k).value();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_P(CoreMapConcurrentTest, BlindCountersSumCorrectly) {
  constexpr long kKey = 0;
  map_->put1(kKey, 0);
  constexpr int kIncrementsPerThread = 600;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIncrementsPerThread; ++i) {
      map_->atomically(
          [&](MapView& m) { m.put(kKey, m.get(kKey).value() + 1); });
    }
  });
  EXPECT_EQ(map_->get1(kKey), long{kThreads} * kIncrementsPerThread);
}

TEST_P(CoreMapConcurrentTest, DisjointKeysScaleWithoutInterference) {
  run_threads(kThreads, [&](int t) {
    for (long i = 0; i < 800; ++i) {
      map_->atomically([&](MapView& m) { m.put(t * 1000 + i, i); });
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    for (long i = 0; i < 800; i += 101) {
      EXPECT_EQ(map_->get1(t * 1000 + i), i);
    }
  }
}

TEST_P(CoreMapConcurrentTest, SizeMatchesNetCommittedInserts) {
  if (map_->committed_size() < 0) GTEST_SKIP() << "size unsupported";
  std::atomic<long> net{0};
  run_threads(kThreads, [&](int t) {
    proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 99);
    for (int i = 0; i < 700; ++i) {
      const long k = static_cast<long>(rng.below(48));
      if (rng.uniform() < 0.5) {
        bool inserted = false;
        map_->atomically(
            [&](MapView& m) { inserted = !m.put(k, i).has_value(); });
        if (inserted) net.fetch_add(1);
      } else {
        bool removed = false;
        map_->atomically(
            [&](MapView& m) { removed = m.remove(k).has_value(); });
        if (removed) net.fetch_sub(1);
      }
    }
  });
  EXPECT_EQ(map_->committed_size(), net.load());
}

TEST_P(CoreMapConcurrentTest, AtomicSwapsNeverTearPairs) {
  // Each txn swaps the values of two keys; the multiset of values is
  // invariant under swaps.
  map_->put1(0, 111);
  map_->put1(1, 222);
  run_threads(2, [&](int) {
    for (int i = 0; i < 1500; ++i) {
      map_->atomically([&](MapView& m) {
        const long a = m.get(0).value();
        const long b = m.get(1).value();
        m.put(0, b);
        m.put(1, a);
      });
    }
  });
  const long a = map_->get1(0).value();
  const long b = map_->get1(1).value();
  EXPECT_TRUE((a == 111 && b == 222) || (a == 222 && b == 111))
      << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    OpaqueConfigs, CoreMapConcurrentTest,
    ::testing::ValuesIn(opaque_map_configs()),
    [](const auto& info) { return info.param.name; });
