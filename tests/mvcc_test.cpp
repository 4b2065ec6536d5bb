// MVCC snapshot reads (StmOptions::mvcc, DESIGN.md §11): read-only
// transactions pin a start timestamp and read version chains — no read set,
// no validation, no conflict aborts — while writers keep full TL2 semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "stm/stm.hpp"

using namespace proust::stm;

namespace {

StmOptions mvcc_options() {
  StmOptions o;
  o.mvcc = true;
  return o;
}

}  // namespace

TEST(MvccTest, SnapshotSumInvariantUnderConcurrentWriters) {
  // Writers move value between accounts keeping the total fixed; snapshot
  // readers must always see the invariant total, and each read-only call
  // must run its body exactly once (a second run would mean an abort).
  Stm stm(Mode::Lazy, mvcc_options());
  constexpr int kAccounts = 16;
  constexpr long kInitial = 1000;
  std::deque<Var<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.emplace_back(kInitial);

  std::atomic<bool> stop{false};
  std::atomic<long> bad_sums{0};
  std::atomic<long> reruns{0};
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;

  std::vector<std::thread> ts;
  for (int t = 0; t < kWriters; ++t) {
    ts.emplace_back([&, t] {
      proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 11);
      while (!stop.load(std::memory_order_acquire)) {
        const int from = static_cast<int>(rng.below(kAccounts));
        const int to = static_cast<int>(rng.below(kAccounts));
        if (from == to) continue;
        stm.atomically([&](Txn& tx) {
          const long f = tx.read(accounts[from]);
          tx.write(accounts[from], f - 1);
          tx.write(accounts[to], tx.read(accounts[to]) + 1);
        });
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        int runs = 0;
        long sum = 0;
        stm.atomically_ro([&](Txn& tx) {
          ++runs;
          sum = 0;
          for (auto& a : accounts) sum += tx.read(a);
          EXPECT_TRUE(tx.is_snapshot_reader());
        });
        if (sum != long{kAccounts} * kInitial) bad_sums.fetch_add(1);
        if (runs != 1) reruns.fetch_add(1);
      }
    });
  }
  // Let writers run until the readers are done.
  for (std::size_t i = kWriters; i < ts.size(); ++i) ts[i].join();
  stop.store(true, std::memory_order_release);
  for (int t = 0; t < kWriters; ++t) ts[t].join();

  EXPECT_EQ(bad_sums.load(), 0) << "snapshot saw a torn total";
  EXPECT_EQ(reruns.load(), 0) << "a declared read-only call re-ran its body";

  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.ro_commits, std::uint64_t{kReaders} * 4000);
  EXPECT_GT(s.mvcc_pushed, 0u) << "writers never pushed a version";

  long total = 0;
  for (auto& a : accounts) total += a.unsafe_ref();
  EXPECT_EQ(total, long{kAccounts} * kInitial) << "writer-path opacity broken";
}

TEST(MvccTest, DeclaredReadOnlyWriteThrows) {
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> v(1);
  EXPECT_THROW(
      stm.atomically_ro([&](Txn& tx) { tx.write(v, 2); }),
      std::logic_error);
  EXPECT_EQ(v.unsafe_ref(), 1);
  // The Stm stays usable after the contract violation.
  stm.atomically([&](Txn& tx) { tx.write(v, 3); });
  EXPECT_EQ(v.unsafe_ref(), 3);
}

TEST(MvccTest, AtomicallyRoWithoutMvccBehavesLikeAtomically) {
  // Without StmOptions::mvcc the declared-read-only entry point is a plain
  // atomically: writes are allowed and no snapshot machinery engages.
  Stm stm(Mode::Lazy);
  Var<long> v(0);
  stm.atomically_ro([&](Txn& tx) {
    EXPECT_FALSE(tx.is_snapshot_reader());
    tx.write(v, 42);
  });
  EXPECT_EQ(v.unsafe_ref(), 42);
}

TEST(MvccTest, NestedReadOnlyJoinsEnclosingTransaction) {
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> v(7);
  stm.atomically([&](Txn& outer) {
    outer.write(v, 8);
    long seen = 0;
    stm.atomically_ro([&](Txn& inner) {
      EXPECT_EQ(&inner, &outer);  // flat nesting: same transaction
      seen = inner.read(v);
    });
    EXPECT_EQ(seen, 8);  // sees the enclosing writer's own write
  });
  EXPECT_EQ(v.unsafe_ref(), 8);
}

TEST(MvccTest, HistoricalReadsStayOnSnapshot) {
  // A reader that pins a snapshot, then lets writers commit, must keep
  // reading the pinned version — the second read walks the version chain.
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> v(100);

  std::atomic<int> phase{0};  // 0: reader not pinned, 1: pinned, 2: written
  long first = -1, second = -1;

  std::thread reader([&] {
    stm.atomically_ro([&](Txn& tx) {
      first = tx.read(v);
      phase.store(1, std::memory_order_release);
      while (phase.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
      second = tx.read(v);
    });
  });

  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }
  for (long i = 1; i <= 5; ++i) {
    stm.atomically([&](Txn& tx) { tx.write(v, 100 + i); });
  }
  phase.store(2, std::memory_order_release);
  reader.join();

  EXPECT_EQ(first, 100);
  EXPECT_EQ(second, 100) << "snapshot read drifted to a newer version";
  EXPECT_EQ(v.unsafe_ref(), 105);
}

TEST(MvccTest, TruncationBoundsChainsOnceReadersRelease) {
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> v(0);

  std::atomic<int> phase{0};
  std::thread reader([&] {
    stm.atomically_ro([&](Txn& tx) {
      (void)tx.read(v);
      phase.store(1, std::memory_order_release);
      while (phase.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
    });
  });
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }

  // While the reader's snapshot is pinned, the truncation horizon is stuck
  // at it: the chain must retain (almost) every displaced version.
  constexpr long kWrites = 100;
  for (long i = 1; i <= kWrites; ++i) {
    stm.atomically([&](Txn& tx) { tx.write(v, i); });
  }
  EXPECT_GE(v.unsafe_chain_length(), static_cast<std::size_t>(kWrites / 2))
      << "chain truncated past a live snapshot's horizon";

  phase.store(2, std::memory_order_release);
  reader.join();

  // With no reader announced, the very next commits truncate down to the
  // single entry at the horizon.
  for (long i = 0; i < 4; ++i) {
    stm.atomically([&](Txn& tx) { tx.write(v, kWrites + 1 + i); });
  }
  EXPECT_LE(v.unsafe_chain_length(), std::size_t{4});
  const auto s = stm.stats().snapshot();
  EXPECT_GT(s.mvcc_reclaimed, 0u);
  EXPECT_GT(s.mvcc_chain_max, 0u);
}

TEST(MvccTest, AutoDetectionRetriesCleanAbortsAsSnapshots) {
  // A read-only body that aborts (conflict with a writer) retries as a
  // snapshot reader and then cannot abort again. Detection is per call, so
  // we look for a call whose retry observed is_snapshot_reader().
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> a(0), b(0);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    long i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      stm.atomically([&](Txn& tx) {
        tx.write(a, i);
        tx.write(b, -i);
      });
    }
  });

  bool promoted = false;
  for (int i = 0; i < 200000 && !promoted; ++i) {
    stm.atomically([&](Txn& tx) {
      const long x = tx.read(a);
      // Widen the window between the two reads so the writer can slip in.
      for (int spin = 0; spin < 64; ++spin) proust::Backoff::cpu_relax();
      const long y = tx.read(b);
      EXPECT_EQ(x + y, 0) << "inconsistent snapshot";
      promoted |= tx.is_snapshot_reader();
    });
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_TRUE(promoted)
      << "no clean abort was ever retried in snapshot mode";
  EXPECT_GT(stm.stats().snapshot().ro_commits, 0u);
}

TEST(MvccTest, WritersStillConflictAndRetryCorrectly) {
  // The counter-increment loop from the concurrent suite, under mvcc: the
  // writer path keeps TL2 semantics (no lost updates).
  Stm stm(Mode::Lazy, mvcc_options());
  Var<long> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;

  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      sync.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        stm.atomically(
            [&](Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter.unsafe_ref(), long{kThreads} * kIters);
}

TEST(MvccTest, MvccWorksAcrossModesAndClockSchemes) {
  for (const Mode mode : {Mode::Lazy, Mode::EagerWrite, Mode::EagerAll}) {
    for (const ClockScheme cs :
         {ClockScheme::IncOnCommit, ClockScheme::LazyBump}) {
      StmOptions o = mvcc_options();
      o.clock_scheme = cs;
      Stm stm(mode, o);
      Var<long> x(1), y(2);

      for (long i = 0; i < 50; ++i) {
        stm.atomically([&](Txn& tx) {
          tx.write(x, tx.read(x) + 1);
          tx.write(y, tx.read(y) + 1);
        });
      }
      long sx = 0, sy = 0;
      stm.atomically_ro([&](Txn& tx) {
        sx = tx.read(x);
        sy = tx.read(y);
      });
      EXPECT_EQ(sx, 51);
      EXPECT_EQ(sy, 52);
      EXPECT_GT(stm.stats().snapshot().ro_commits, 0u);
    }
  }
}
