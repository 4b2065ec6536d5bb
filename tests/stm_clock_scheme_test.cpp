// Tests for the global-clock scheme axis (StmOptions::clock_scheme) and the
// block-allocating stamp source:
//  - snapshot consistency and per-thread monotonicity under every
//    scheme × mode combination (the validation-skip fast path is only taken
//    under IncOnCommit; LazyBump's non-ticking clock forces full
//    revalidation, and these stresses are what would catch a wrongly-kept
//    skip);
//  - LazyBump progress: readers that meet a version ahead of the clock must
//    catch the clock up instead of livelocking;
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

struct SchemeMode {
  ClockScheme scheme;
  Mode mode;
};

std::string scheme_mode_name(
    const ::testing::TestParamInfo<SchemeMode>& info) {
  return std::string(to_string(info.param.scheme)) +
         to_string(info.param.mode);
}

}  // namespace

class ClockSchemeTest : public ::testing::TestWithParam<SchemeMode> {
 protected:
  StmOptions opts() const {
    StmOptions o;
    o.clock_scheme = GetParam().scheme;
    return o;
  }
};

// Writers keep all K vars equal (read var0, write value+1 everywhere);
// readers assert that a committed snapshot is never torn and that values
// observed by successive transactions of one thread never regress (real-time
// order: the transactions do not overlap). A broken validation skip or a
// regressed orec version shows up here as a torn or backwards snapshot.
TEST_P(ClockSchemeTest, SnapshotsStayConsistentAndMonotone) {
  constexpr int kVars = 4;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kTxnsPerThread = 3000;

  Stm stm(GetParam().mode, opts());
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

TEST_P(ClockSchemeTest, ContendedCounterStaysExact) {
  Stm stm(GetParam().mode, opts());
  Var<long> counter(0);
  constexpr int kThreads = 4;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 2000; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  });
  EXPECT_EQ(counter.unsafe_ref(), long{kThreads} * 2000);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndModes, ClockSchemeTest,
    ::testing::Values(
        SchemeMode{ClockScheme::IncOnCommit, Mode::Lazy},
        SchemeMode{ClockScheme::IncOnCommit, Mode::EagerWrite},
        SchemeMode{ClockScheme::IncOnCommit, Mode::EagerAll},
        SchemeMode{ClockScheme::LazyBump, Mode::Lazy},
        SchemeMode{ClockScheme::LazyBump, Mode::EagerWrite},
        SchemeMode{ClockScheme::LazyBump, Mode::EagerAll}),
    scheme_mode_name);

// LazyBump never ticks the clock on commit, so a reader that meets the
// committed version `clock + 1` must raise the clock itself; otherwise every
// retry would re-begin at the same stale rv and spin forever. Single-var
// read-modify-write across threads is the worst case.
TEST(LazyBump, ReadersCatchTheClockUpAndMakeProgress) {
  StmOptions o;
  o.clock_scheme = ClockScheme::LazyBump;
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);
  run_threads(2, [&](int) {
    for (int i = 0; i < 2000; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(v, tx.read(v) + 1); });
    }
  });
  EXPECT_EQ(v.unsafe_ref(), 4000);
  // The clock moved (readers bumped it) but ticked far fewer times than the
  // 4000 commits a per-commit scheme would have cost.
  EXPECT_GT(stm.clock_now(), 0u);
}

// LazyBump never writes the clock on commit, so `clock + 1` alone would let
// back-to-back commits to one var release at the *same* version — two
// different committed states an exact-version validation compare could not
// tell apart (the enabler of a torn snapshot on the extension path).
// generate_wv floors the write version above every displaced lock version:
// per-orec versions must strictly increase even while the clock never moves.
TEST(LazyBump, OrecVersionsNeverRepeatWhileClockIsStill) {
  StmOptions o;
  o.clock_scheme = ClockScheme::LazyBump;
  for (Mode mode : {Mode::Lazy, Mode::EagerWrite, Mode::EagerAll}) {
    Stm stm(mode, o);
    Var<long> v(0);
    Version last = v.unsafe_version();
    for (int i = 0; i < 64; ++i) {
      stm.atomically([&](Txn& tx) { tx.write(v, static_cast<long>(i)); });
      const Version now = v.unsafe_version();
      EXPECT_GT(now, last) << "commit " << i << " reused an orec version";
      last = now;
    }
    EXPECT_EQ(stm.clock_now(), 0u) << "write-only commits must not tick GV5";
  }
}

// Regression stress for the torn-snapshot scenario on the eager extension
// path: a read that meets a too-new version extends its snapshot and must
// then *re-read* the var — the pre-extension copy is stale evidence, and
// under a version-reusing clock an equal-version re-check would accept a
// value from a different commit. One hot var recommitted at maximum
// frequency (so versions would collide constantly without the wv floor)
// plus a paired var lets a reader detect any tear as a mismatched pair.
TEST(LazyBump, EagerExtensionRereadsInsteadOfTrustingStaleCopy) {
  StmOptions o;
  o.clock_scheme = ClockScheme::LazyBump;
  Stm stm(Mode::EagerWrite, o);
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

TEST(LazyBump, SingleThreadWriteOnlyLeavesClockUntouched) {
  StmOptions o;
  o.clock_scheme = ClockScheme::LazyBump;
  Stm stm(Mode::Lazy, o);
  Var<long> a(0), b(0);
  for (int i = 0; i < 100; ++i) {
    stm.atomically([&](Txn& tx) {
      tx.write(a, static_cast<long>(i));
      tx.write(b, static_cast<long>(i));
    });
  }
  EXPECT_EQ(stm.clock_now(), 0u) << "write-only commits must not tick GV5";
  EXPECT_EQ(a.unsafe_ref(), 99);
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
