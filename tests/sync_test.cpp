// Tests for the re-entrant reader-writer abstract locks, including the
// group discipline used by PQueueMultiSet. Owners carry their own membership
// counters (ReentrantRwLock::Hold) — the lock itself keeps no per-owner
// state — so each logical owner here is simply a distinct Hold record.
// Also the futex eventcount the WAL committer and strict waiters park on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sync/eventcount.hpp"
#include "sync/reentrant_rw_lock.hpp"

using namespace proust::sync;
using namespace std::chrono_literals;

namespace {
constexpr auto kShort = 5ms;
constexpr auto kLong = 2s;
using Hold = ReentrantRwLock::Hold;
}  // namespace

TEST(ReentrantRwLock, ReadersShare) {
  ReentrantRwLock l;
  Hold a, b;
  EXPECT_TRUE(l.try_acquire(a, false, kShort));
  EXPECT_TRUE(l.try_acquire(b, false, kShort));
  l.release_all(a);
  l.release_all(b);
  EXPECT_EQ(l.reader_owners(), 0u);
}

TEST(ReentrantRwLock, WriterExcludesReader) {
  ReentrantRwLock l;
  Hold a, b;
  ASSERT_TRUE(l.try_acquire(a, true, kShort));
  EXPECT_FALSE(l.try_acquire(b, false, kShort));
  l.release_all(a);
  EXPECT_TRUE(l.try_acquire(b, false, kShort));
  l.release_all(b);
}

TEST(ReentrantRwLock, WriterExcludesWriter) {
  ReentrantRwLock l;
  Hold a, b;
  ASSERT_TRUE(l.try_acquire(a, true, kShort));
  EXPECT_FALSE(l.try_acquire(b, true, kShort));
  l.release_all(a);
}

TEST(ReentrantRwLock, ReaderExcludesWriter) {
  ReentrantRwLock l;
  Hold a, b;
  ASSERT_TRUE(l.try_acquire(a, false, kShort));
  EXPECT_FALSE(l.try_acquire(b, true, kShort));
  l.release_all(a);
}

TEST(ReentrantRwLock, ReentrantInBothModes) {
  ReentrantRwLock l;
  Hold a;
  EXPECT_TRUE(l.try_acquire(a, false, kShort));
  EXPECT_TRUE(l.try_acquire(a, false, kShort));
  EXPECT_TRUE(l.try_acquire(a, true, kShort));  // upgrade, sole holder
  EXPECT_TRUE(l.try_acquire(a, true, kShort));
  EXPECT_TRUE(ReentrantRwLock::holds(a, true));
  EXPECT_EQ(a.readers, 2u);
  EXPECT_EQ(a.writers, 2u);
  // One owner in each group, regardless of how many holds it stacked.
  EXPECT_EQ(l.reader_owners(), 1u);
  EXPECT_EQ(l.writer_owners(), 1u);
  l.release_all(a);
  EXPECT_FALSE(ReentrantRwLock::holds(a, false));
  EXPECT_EQ(l.reader_owners(), 0u);
  EXPECT_EQ(l.writer_owners(), 0u);
}

TEST(ReentrantRwLock, UpgradeBlockedByOtherReader) {
  ReentrantRwLock l;
  Hold a, b;
  ASSERT_TRUE(l.try_acquire(a, false, kShort));
  ASSERT_TRUE(l.try_acquire(b, false, kShort));
  EXPECT_FALSE(l.try_acquire(a, true, kShort));  // b still reading
  EXPECT_EQ(a.writers, 0u);  // failed acquire left the hold untouched
  l.release_all(b);
  EXPECT_TRUE(l.try_acquire(a, true, kShort));
  l.release_all(a);
}

TEST(ReentrantRwLock, ReleaseAllWithoutHoldsIsNoop) {
  ReentrantRwLock l;
  Hold a, b;
  l.release_all(a);  // must not crash or corrupt counts
  EXPECT_TRUE(l.try_acquire(b, true, kShort));
  l.release_all(b);
}

TEST(ReentrantRwLock, GroupModeWritersShare) {
  ReentrantRwLock l(LockKind::kGroup);
  Hold a, b, c;
  EXPECT_TRUE(l.try_acquire(a, true, kShort));
  EXPECT_TRUE(l.try_acquire(b, true, kShort));    // writers share
  EXPECT_FALSE(l.try_acquire(c, false, kShort));  // readers excluded
  l.release_all(a);
  EXPECT_FALSE(l.try_acquire(c, false, kShort));  // b still writing
  l.release_all(b);
  EXPECT_TRUE(l.try_acquire(c, false, kShort));
  l.release_all(c);
}

TEST(ReentrantRwLock, GroupModeReadersExcludeWriters) {
  ReentrantRwLock l(LockKind::kGroup);
  Hold a, b;
  ASSERT_TRUE(l.try_acquire(a, false, kShort));
  EXPECT_FALSE(l.try_acquire(b, true, kShort));
  l.release_all(a);
  EXPECT_TRUE(l.try_acquire(b, true, kShort));
  l.release_all(b);
}

TEST(ReentrantRwLock, WaiterWakesOnRelease) {
  ReentrantRwLock l;
  Hold a;
  ASSERT_TRUE(l.try_acquire(a, true, kShort));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Hold b;
    if (l.try_acquire(b, true, kLong)) {
      acquired.store(true);
      l.release_all(b);
    }
  });
  std::this_thread::sleep_for(20ms);
  l.release_all(a);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ReentrantRwLock, WriteExclusionStress) {
  ReentrantRwLock l;
  long counter = 0;  // protected by l (write mode)
  constexpr int kThreads = 4, kIters = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      Hold me;
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(l.try_acquire(me, true, kLong));
        ++counter;
        l.release_all(me);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, long{kThreads} * kIters);
}

// --- kGroup discipline under real concurrency ------------------------------

// Commuting writers must genuinely overlap: both threads enter the write
// group and rendezvous *inside* their critical sections. If the group
// discipline serialized them, the second entrant would block until the
// first released and the rendezvous would time out.
TEST(ReentrantRwLock, GroupWritersOverlapConcurrently) {
  ReentrantRwLock l(LockKind::kGroup);
  std::atomic<int> inside{0};
  std::atomic<bool> both_seen{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 2; ++t) {
    ts.emplace_back([&] {
      Hold me;
      ASSERT_TRUE(l.try_acquire(me, true, kLong));
      inside.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + kLong;
      while (inside.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() == 2) both_seen.store(true);
      l.release_all(me);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_TRUE(both_seen.load());
}

// Group exclusion under load: every thread repeatedly joins a randomly
// chosen group and asserts, while inside, that no member of the opposite
// group is present. Counts are tracked in separate atomics so a discipline
// violation is caught deterministically rather than as a data race.
TEST(ReentrantRwLock, GroupExclusionStress) {
  ReentrantRwLock l(LockKind::kGroup);
  std::atomic<int> reading{0}, writing{0};
  std::atomic<bool> violation{false};
  constexpr int kThreads = 4, kIters = 1500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Hold me;
      unsigned rng = 0x9E3779B9u * static_cast<unsigned>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        rng = rng * 1664525u + 1013904223u;
        const bool write = (rng >> 16) & 1;
        ASSERT_TRUE(l.try_acquire(me, write, kLong));
        std::atomic<int>& mine = write ? writing : reading;
        std::atomic<int>& theirs = write ? reading : writing;
        mine.fetch_add(1);
        if (theirs.load() != 0) violation.store(true);
        mine.fetch_sub(1);
        l.release_all(me);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(violation.load());
}

// Read→write upgrade under contention: every thread takes a read hold, then
// attempts the upgrade with a short timeout. Concurrent upgraders deadlock
// against each other's read holds by design — the assertion is that each
// attempt either succeeds (and really is exclusive) or times out *cleanly*:
// the hold record is unchanged, the read hold remains valid, and the lock is
// undamaged for the next round.
TEST(ReentrantRwLock, UpgradeSucceedsOrTimesOutCleanly) {
  ReentrantRwLock l;
  std::atomic<int> writers_inside{0};
  std::atomic<int> upgrades{0}, timeouts{0};
  std::atomic<bool> violation{false};
  constexpr int kThreads = 4, kIters = 400;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      Hold me;
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(l.try_acquire(me, false, kLong));
        if (l.try_acquire(me, true, 1ms)) {
          if (writers_inside.fetch_add(1) != 0) violation.store(true);
          writers_inside.fetch_sub(1);
          upgrades.fetch_add(1);
        } else {
          if (me.writers != 0 || me.readers != 1) violation.store(true);
          timeouts.fetch_add(1);
        }
        l.release_all(me);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(upgrades.load() + timeouts.load(), kThreads * kIters);
  // The lock must be fully released: a fresh writer acquires immediately.
  Hold w;
  EXPECT_TRUE(l.try_acquire(w, true, kShort));
  l.release_all(w);
}

TEST(EventCount, PingPongLosesNoWakeup) {
  // Two threads hand a turn back and forth, each parking with a 10 s
  // deadline while it waits: a single lost wake-up costs a full deadline.
  constexpr int kRounds = 20000;
  EventCount ec;
  std::atomic<int> turn{0};
  const auto await = [&](int want) {
    const auto ready = [&] {
      return turn.load(std::memory_order_acquire) == want;
    };
    while (!ready()) {
      ec.wait_until(ready, std::chrono::steady_clock::now() + 10s);
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::thread consumer([&] {
    for (int r = 0; r < kRounds; ++r) {
      await(2 * r + 1);
      turn.store(2 * r + 2, std::memory_order_release);
      ec.notify_all();
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    turn.store(2 * r + 1, std::memory_order_release);
    ec.notify_all();
    await(2 * r + 2);
  }
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
}

TEST(EventCount, NotifyWithNobodyParkedReturnsAtOnce) {
  EventCount ec;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) ec.notify_all();
  // A waiter whose predicate already holds withdraws without parking.
  ec.wait_until([] { return true; }, t0 + 10s);
  ec.notify_all();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kLong);
}
