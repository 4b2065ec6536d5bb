// Tests for the global version clock (one `fetch_add` per writing commit,
// DESIGN.md §7) and the block-allocating stamp source:
//  - snapshot consistency and per-thread monotonicity under every mode (the
//    `rv + 1 == wv` validation skip is what these stresses would catch if
//    it were taken unsoundly);
//  - per-orec versions strictly increase, a read that extends its snapshot
//    re-reads instead of trusting its pre-extension copy, and an aborted
//    in-place write releases its var at a fresh version;
//  - stamp blocks: globally unique, strictly increasing per thread, and
//    never colliding or repeating across thread exit and slot reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "stm/stm.hpp"

using namespace proust::stm;

namespace {

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

std::string mode_name(const ::testing::TestParamInfo<Mode>& info) {
  return to_string(info.param);
}

}  // namespace

class ClockTest : public ::testing::TestWithParam<Mode> {};

// Writers keep all K vars equal (read var0, write value+1 everywhere);
// readers assert that a committed snapshot is never torn and that values
// observed by successive transactions of one thread never regress (real-time
// order: the transactions do not overlap). A broken validation skip or a
// regressed orec version shows up here as a torn or backwards snapshot.
TEST_P(ClockTest, SnapshotsStayConsistentAndMonotone) {
  constexpr int kVars = 4;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kTxnsPerThread = 3000;

  Stm stm(GetParam());
  std::vector<Var<long>> vars(kVars);
  std::atomic<bool> torn{false}, regressed{false};

  run_threads(kWriters + kReaders, [&](int t) {
    if (t < kWriters) {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        stm.atomically([&](Txn& tx) {
          const long next = tx.read(vars[0]) + 1;
          for (auto& v : vars) tx.write(v, next);
        });
      }
    } else {
      long last = 0;
      for (int i = 0; i < kTxnsPerThread; ++i) {
        long snap[kVars];
        stm.atomically([&](Txn& tx) {
          for (int k = 0; k < kVars; ++k) snap[k] = tx.read(vars[k]);
        });
        for (int k = 1; k < kVars; ++k) {
          if (snap[k] != snap[0]) torn.store(true);
        }
        if (snap[0] < last) regressed.store(true);
        last = snap[0];
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed snapshot saw mixed versions";
  EXPECT_FALSE(regressed.load()) << "commit order regressed in real time";
  EXPECT_EQ(vars[0].unsafe_ref(), long{kWriters} * kTxnsPerThread);
  for (int k = 1; k < kVars; ++k) {
    EXPECT_EQ(vars[k].unsafe_ref(), vars[0].unsafe_ref());
  }
}

TEST_P(ClockTest, ContendedCounterStaysExact) {
  Stm stm(GetParam());
  Var<long> counter(0);
  constexpr int kThreads = 4;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 2000; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  });
  EXPECT_EQ(counter.unsafe_ref(), long{kThreads} * 2000);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ClockTest,
                         ::testing::Values(Mode::Lazy, Mode::EagerWrite,
                                           Mode::EagerAll),
                         mode_name);

// Exact-version validation compares can only tell two committed states of a
// var apart if a var never releases the same version twice. Every writing
// commit ticks the clock after taking its locks and releases at the new
// value, so per-orec versions strictly increase and never run ahead of the
// clock (timestamp extension relies on the latter).
TEST(GlobalClock, OrecVersionsStrictlyIncrease) {
  for (Mode mode : {Mode::Lazy, Mode::EagerWrite, Mode::EagerAll}) {
    Stm stm(mode);
    Var<long> v(0);
    Version last = v.unsafe_version();
    for (int i = 0; i < 64; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(v, static_cast<long>(i)); });
      const Version now = v.unsafe_version();
      EXPECT_GT(now, last) << "commit " << i << " reused an orec version";
      EXPECT_EQ(now, stm.clock_now()) << "commit " << i;
      last = now;
    }
  }
}

// Regression stress for the torn-snapshot scenario on the eager extension
// path: a read that meets a too-new version extends its snapshot and must
// then *re-read* the var — the pre-extension copy is stale evidence, since
// the var may have been recommitted between the copy and the extension.
// One hot var recommitted at maximum frequency plus a paired var lets a
// reader detect any tear as a mismatched pair.
TEST(GlobalClock, EagerExtensionRereadsInsteadOfTrustingStaleCopy) {
  Stm stm(Mode::EagerWrite);
  Var<long> a(0), b(0);
  std::atomic<bool> torn{false};
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kTxnsPerThread = 4000;

  run_threads(kWriters + kReaders, [&](int t) {
    if (t < kWriters) {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        stm.atomically([&](Txn& tx) {
          const long next = tx.read(a) + 1;
          tx.write(a, next);
          tx.write(b, next);
        });
      }
    } else {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        long sa = 0, sb = 0;
        stm.atomically([&](Txn& tx) {
          sa = tx.read(a);  // extension-heavy: writers outpace our rv
          sb = tx.read(b);
        });
        if (sa != sb) torn.store(true);
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed snapshot mixed two commits";
  EXPECT_EQ(a.unsafe_ref(), long{kWriters} * kTxnsPerThread);
  EXPECT_EQ(b.unsafe_ref(), a.unsafe_ref());
}

// An aborted attempt that wrote in place restores the value and releases
// the var at a fresh version, drawn from the clock: an invisible reader
// that copied the uncommitted bytes then cannot find the orec word it
// loaded first. Lazy never writes in place, so its aborted write leaves the
// version alone.
TEST(GlobalClock, AbortedInPlaceWriteReleasesAFreshVersion) {
  for (const Mode mode : {Mode::Lazy, Mode::EagerWrite, Mode::EagerAll}) {
    SCOPED_TRACE(to_string(mode));
    Stm stm(mode);
    Var<long> v(5);
    stm.atomically([&](Txn& tx) { v.write(tx, 6); });
    const Version before = v.unsafe_version();
    struct Bail {};
    EXPECT_THROW(stm.atomically([&](Txn& tx) {
                   v.write(tx, 99);
                   throw Bail{};
                 }),
                 Bail);
    EXPECT_EQ(v.unsafe_ref(), 6);
    if (mode == Mode::Lazy) {
      EXPECT_EQ(v.unsafe_version(), before);
    } else {
      EXPECT_GT(v.unsafe_version(), before);
      EXPECT_LE(v.unsafe_version(), stm.clock_now());
    }
  }
}

// --- Stamp blocks -----------------------------------------------------------

// Stamps must stay globally unique and strictly increasing per thread while
// threads draw more than a block's worth (forcing refills) concurrently.
TEST(StampBlocks, UniqueAndPerThreadMonotoneUnderConcurrency) {
  Stm stm(Mode::Lazy);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;  // > one 1024-stamp block each
  std::vector<std::vector<std::uint64_t>> got(kThreads);

  run_threads(kThreads, [&](int t) {
    got[t].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      stm.atomically([&](Txn& tx) { got[t].push_back(tx.fresh_stamp()); });
    }
  });

  std::vector<std::uint64_t> all;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(std::adjacent_find(got[t].begin(), got[t].end(),
                                 std::greater_equal<std::uint64_t>()),
              got[t].end())
        << "thread " << t << " stamps not strictly increasing";
    all.insert(all.end(), got[t].begin(), got[t].end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate stamp across threads";
  EXPECT_EQ(all.size(), std::size_t{kThreads} * kPerThread);
}

// Thread exit recycles registry slots; a new thread on a recycled slot must
// resume the slot's partially-used block without reissuing any value. Waves
// of short-lived threads are exactly that pattern.
TEST(StampBlocks, NoCollisionsAcrossThreadExitAndSlotReuse) {
  Stm stm(Mode::Lazy);
  constexpr int kWaves = 6;
  constexpr int kThreadsPerWave = 4;
  constexpr int kPerThread = 700;  // straddles block boundaries across waves
  std::vector<std::uint64_t> all;

  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::vector<std::uint64_t>> wave(kThreadsPerWave);
    run_threads(kThreadsPerWave, [&](int t) {
      wave[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        stm.atomically([&](Txn& tx) { wave[t].push_back(tx.fresh_stamp()); });
      }
    });  // all wave threads exit here; their slots are recycled
    for (auto& v : wave) {
      EXPECT_EQ(std::adjacent_find(v.begin(), v.end(),
                                   std::greater_equal<std::uint64_t>()),
                v.end());
      all.insert(all.end(), v.begin(), v.end());
    }
  }

  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a recycled slot reissued a stamp";
  EXPECT_EQ(all.size(),
            std::size_t{kWaves} * kThreadsPerWave * kPerThread);
}

// Stamp sources of independent Stm instances are independent (each has its
// own block counter), mirroring the independent-clocks guarantee.
TEST(StampBlocks, IndependentStmInstancesDoNotInterfere) {
  Stm a(Mode::Lazy), b(Mode::Lazy);
  std::uint64_t sa = 0, sb = 0;
  a.atomically([&](Txn& tx) { sa = tx.fresh_stamp(); });
  b.atomically([&](Txn& tx) { sb = tx.fresh_stamp(); });
  EXPECT_EQ(sa, sb) << "fresh instances start from the same first block";
}
