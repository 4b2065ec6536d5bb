// The steady-state zero-allocation invariant (DESIGN.md "Transaction memory
// layout & hot path"): after a short warm-up, a transaction attempt — reads,
// writes (both index tiers), hooks, locals, commit or retry — performs zero
// heap allocations. Verified with a counting global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/lap.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/txn_hash_map.hpp"
#include "stm/stm.hpp"

namespace {
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace proust::stm;

namespace {

/// Run `body` `warmup` times, then `measured` times, and return the number
/// of operator-new calls made during the measured phase.
template <class Body>
std::size_t allocations_in_steady_state(Body&& body, int warmup = 128,
                                        int measured = 1024) {
  for (int i = 0; i < warmup; ++i) body(i);
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < measured; ++i) body(i);
  return g_news.load(std::memory_order_relaxed) - before;
}

class ZeroAllocTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ZeroAllocTest, SmallWriteSetAttemptsAllocateNothing) {
  Stm stm(GetParam());
  std::vector<Var<long>> vars(4);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (auto& v : vars) tx.write(v, tx.read(v) + i);
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST_P(ZeroAllocTest, LargeWriteSetAttemptsAllocateNothing) {
  // 100 vars: flat-table tier, pool-chunk growth, table rehash — all during
  // warm-up; steady state reuses every structure.
  Stm stm(GetParam());
  std::vector<Var<long>> vars(100);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (auto& v : vars) tx.write(v, long{i});
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST_P(ZeroAllocTest, OversizedValuesReuseRetainedBuffers) {
  // 64-byte values exceed ValBuf's 32-byte inline storage; the heap buffers
  // are allocated on first use and retained by the pool afterwards.
  struct Big {
    long a[8];
  };
  Stm stm(GetParam());
  std::vector<Var<Big>> vars(12);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (auto& v : vars) tx.write(v, Big{{long{i}}});
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST_P(ZeroAllocTest, ReadOnlyAttemptsAllocateNothing) {
  Stm stm(GetParam());
  std::vector<Var<long>> vars(16);
  long sink = 0;
  const std::size_t n = allocations_in_steady_state([&](int) {
    sink += stm.atomically([&](Txn& tx) {
      long s = 0;
      for (auto& v : vars) s += tx.read(v);
      return s;
    });
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sink, 0);
}

TEST_P(ZeroAllocTest, HooksAndLocalsAllocateNothing) {
  Stm stm(GetParam());
  Var<long> v;
  int key = 0;
  long observed = 0;
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      long& acc = tx.local<long>(&key, [] { return 0L; });
      acc += i;
      tx.write(v, acc);
      tx.on_commit([&observed, &acc] { observed = acc; });
      tx.on_finish([](Outcome) {});
    });
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(observed, v.unsafe_ref());
}

TEST_P(ZeroAllocTest, RetriesAfterAbortAllocateNothing) {
  // A retry re-runs the attempt against the same arena; the abort/rollback
  // path (undo, lock release, reset) must not allocate either. The throw
  // itself uses the runtime's exception allocator, not operator new.
  Stm stm(GetParam(), StmOptions{.cm_policy = CmPolicy::None});
  std::vector<Var<long>> vars(10);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (auto& v : vars) tx.write(v, long{i});
      if (tx.attempt() % 2 == 1) tx.retry();  // every txn aborts once
    });
  });
  EXPECT_EQ(n, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ZeroAllocTest,
                         ::testing::Values(Mode::Lazy, Mode::EagerWrite,
                                           Mode::EagerAll),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- The Proust layer on top of the STM ------------------------------------
// The abstract-lock fast path and the arena-backed replay logs must preserve
// the zero-allocation invariant end to end. The loops put/get fixed existing
// keys: replacing a present key in StripedHashMap is allocation-free, so any
// count here comes from the Proust machinery itself.

TEST(ZeroAllocProust, BoostedMapSteadyStateAllocatesNothing) {
  // Eager map over pessimistic abstract locks (the Boosting quadrant):
  // lock acquire/release, hold records, inverse hooks, committed size.
  Stm stm(Mode::Lazy);
  proust::core::PessimisticLap<long> lap(stm, 64);
  proust::core::TxnHashMap<long, long, proust::core::PessimisticLap<long>>
      map(lap);
  for (long k = 0; k < 4; ++k) {
    stm.atomically([&](Txn& tx) { map.put(tx, k, k); });
  }
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (long k = 0; k < 4; ++k) {
        map.put(tx, k, long{i});
        map.get(tx, k);
      }
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST(ZeroAllocProust, LazyMapSteadyStateAllocatesNothing) {
  // Lazy memoizing map over the optimistic LAP: replay-log construction,
  // memo-table inserts and growth, op-log appends, commit-time replay.
  Stm stm(Mode::Lazy);
  proust::core::OptimisticLap<long> lap(stm, 64);
  proust::core::LazyHashMap<long, long, proust::core::OptimisticLap<long>>
      map(lap, /*combine=*/false);
  for (long k = 0; k < 4; ++k) map.unsafe_put(k, k);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (long k = 0; k < 4; ++k) {
        map.put(tx, k, long{i});
        map.get(tx, k);
      }
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST(ZeroAllocProust, ZeroAllocReadPath) {
  // The unlocked read path (the optimistic LAP on EagerAll) with heap-heavy
  // keys. The old initializer-list admission built a LockFor<K> per call —
  // for string keys beyond SSO that was one heap allocation per
  // get/contains; the by-ref overloads plus the unlocked path must be
  // allocation-free end to end, and the reads must actually run unlocked.
  Stm stm(Mode::EagerAll);
  proust::core::OptimisticLap<std::string> lap(stm, 64);
  proust::core::TxnHashMap<std::string, long,
                           proust::core::OptimisticLap<std::string>>
      map(lap);
  std::vector<std::string> keys;
  for (int k = 0; k < 4; ++k) {
    keys.push_back("a key long enough to defeat small-string storage #" +
                   std::to_string(k));
  }
  for (const auto& k : keys) {
    stm.atomically([&](Txn& tx) { map.put(tx, k, 1); });
  }
  long sink = 0;
  const std::size_t n = allocations_in_steady_state([&](int) {
    stm.atomically([&](Txn& tx) {
      for (const auto& k : keys) {
        sink += map.get(tx, k).value_or(0);
        if (map.contains(tx, k)) ++sink;
      }
    });
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(sink, 0);
  EXPECT_GT(stm.stats().snapshot().fastpath_hits, 0u)
      << "reads never took the unlocked path";
}

TEST(ZeroAllocProust, LazyPessimisticCombiningAllocatesNothing) {
  // The sound lazy/pessimistic cell with log combining: abstract locks plus
  // the dirty-tracking memo table in one loop.
  Stm stm(Mode::Lazy);
  proust::core::PessimisticLap<long> lap(stm, 64);
  proust::core::LazyHashMap<long, long, proust::core::PessimisticLap<long>>
      map(lap, /*combine=*/true);
  for (long k = 0; k < 4; ++k) map.unsafe_put(k, k);
  const std::size_t n = allocations_in_steady_state([&](int i) {
    stm.atomically([&](Txn& tx) {
      for (long k = 0; k < 4; ++k) {
        map.put(tx, k, long{i});
        map.get(tx, k);
      }
    });
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
