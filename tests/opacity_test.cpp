// Orchestrated cross-thread interleavings validating Section 5's opacity
// claims — and deliberately exhibiting the violation the paper's footnote 3
// warns about (eager/optimistic on an STM with lazy conflict detection).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/lap.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/txn_hash_map.hpp"
#include "stm/stm.hpp"

using namespace proust;
using namespace std::chrono_literals;

namespace {
void await(const std::atomic<int>& stage, int value) {
  while (stage.load(std::memory_order_acquire) < value) {
    std::this_thread::yield();
  }
}
void advance(std::atomic<int>& stage, int value) {
  stage.store(value, std::memory_order_release);
}
}  // namespace

// Theorem 5.3 mechanism: a lazy/optimistic transaction whose conflict
// abstraction was invalidated by a concurrent committed conflicting
// operation must abort and retry — it can never commit against the stale
// shadow copy.
TEST(Opacity, LazyOptimisticRetriesAfterConflictingCommit) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 64);
  core::LazyHashMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);

  std::atomic<int> stage{0};
  int attempts = 0;

  std::thread a([&] {
    stm.atomically([&](stm::Txn& tx) {
      ++attempts;
      map.put(tx, 1, 20);  // CA write + replay log against a shadow copy
      if (attempts == 1) {
        advance(stage, 1);
        await(stage, 2);  // let the conflicting transaction commit
      }
    });
  });

  await(stage, 1);
  stm.atomically([&](stm::Txn& tx) { map.put(tx, 1, 30); });  // conflicts
  advance(stage, 2);
  a.join();

  EXPECT_EQ(attempts, 2) << "first attempt had to abort on validation";
  const long final_value =
      stm.atomically([&](stm::Txn& tx) { return map.get(tx, 1).value(); });
  EXPECT_EQ(final_value, 20) << "retried attempt must still win";
}

// Theorem 5.2 mechanism on an eager-everything STM: a writer that would
// invalidate an active reader's snapshot yields (aborts itself), so the
// reader observes a stable value throughout its transaction. A lazy
// wrapper reads through its CA lock in every mode, and on EagerAll that
// read sets the slot's reader bit.
TEST(Opacity, EagerAllWriterYieldsToVisibleReader) {
  stm::Stm stm(stm::Mode::EagerAll);
  core::OptimisticLap<long> lap(stm, 64);
  core::LazyHashMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);

  std::atomic<int> stage{0};
  long first_read = -1, second_read = -1;

  std::thread reader([&] {
    bool done_once = false;
    stm.atomically([&](stm::Txn& tx) {
      first_read = map.get(tx, 1).value();
      if (!done_once) {
        done_once = true;
        advance(stage, 1);
        await(stage, 2);  // writer is now retrying against our reader bit
      }
      second_read = map.get(tx, 1).value();
    });
  });

  await(stage, 1);
  std::thread writer([&] {
    stm.atomically([&](stm::Txn& tx) { map.put(tx, 1, 99); });
  });
  std::this_thread::sleep_for(30ms);  // give the writer time to (fail to) run
  advance(stage, 2);
  reader.join();
  writer.join();

  // Within any single attempt the reader's snapshot is stable: the writer
  // either yields to the reader bit or forces the whole attempt to retry.
  // (The reader may legitimately retry and land after the writer's commit,
  // so the stable value is 10 or 99 — never a mix.)
  EXPECT_EQ(first_read, second_read) << "reader's snapshot stayed stable";
  EXPECT_EQ(stm.atomically([&](stm::Txn& tx) { return map.get(tx, 1); }), 99);
  const stm::StatsSnapshot s = stm.stats().snapshot();
  EXPECT_GE(s.aborts[static_cast<std::size_t>(
                stm::AbortReason::VisibleReader)],
            1u)
      << "the writer must have yielded at least once";
  EXPECT_EQ(s.fastpath_hits, 0u) << "every read took the CA lock";
}

// The same race through an eager wrapper's guarded read: the reader sets no
// bit, so the writer commits at once instead of yielding. The reader's
// second read finds the slot's version past its snapshot, and the extension
// finds the first read's entry moved and aborts the attempt with
// ValidationFailed. No attempt ever pairs 10 with 99.
TEST(Opacity, EagerAllWrapperReadRevalidatesInsteadOfBlockingWriter) {
  stm::Stm stm(stm::Mode::EagerAll);
  core::OptimisticLap<long> lap(stm, 64);
  core::TxnHashMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);

  std::atomic<int> stage{0};
  int attempts = 0, mixes = 0;
  long first_read = -1, second_read = -1;

  std::thread reader([&] {
    stm.atomically([&](stm::Txn& tx) {
      first_read = map.get(tx, 1).value();
      if (++attempts == 1) {
        advance(stage, 1);
        await(stage, 2);  // the writer has committed
      }
      second_read = map.get(tx, 1).value();
      if (first_read != second_read) ++mixes;
    });
  });

  await(stage, 1);
  // Joined before the reader resumes: nothing makes the writer wait.
  std::thread([&] {
    stm.atomically([&](stm::Txn& tx) { map.put(tx, 1, 99); });
  }).join();
  advance(stage, 2);
  reader.join();

  EXPECT_EQ(mixes, 0) << "a read pair straddled the writer's commit";
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(first_read, 99);
  EXPECT_EQ(second_read, 99);
  const stm::StatsSnapshot s = stm.stats().snapshot();
  EXPECT_EQ(s.aborts[static_cast<std::size_t>(
                stm::AbortReason::VisibleReader)],
            0u)
      << "no reader bit, so the writer never yields";
  EXPECT_EQ(s.aborts[static_cast<std::size_t>(
                stm::AbortReason::ValidationFailed)],
            1u);
}

// Footnote 3 / Figure 1's incompatible cell, demonstrated: eager updates
// with optimistic conflict abstraction on an STM that detects conflicts
// lazily let a concurrent transaction observe uncommitted (later rolled
// back) base-structure state. This is exactly why Theorem 5.2 requires
// eager conflict detection — and why ScalaProust's eager/optimistic objects
// were not opaque on CCSTM.
TEST(Opacity, EagerOptimisticOnLazyStmExhibitsDirtyRead) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 64);
  core::TxnHashMap<long, long, core::OptimisticLap<long>> map(lap);
  map.unsafe_put(1, 10);

  std::atomic<int> stage{0};

  std::thread doomed([&] {
    try {
      stm.atomically([&](stm::Txn& tx) {
        map.put(tx, 1, 99);  // applied to the shared base immediately
        advance(stage, 1);
        await(stage, 2);
        throw std::runtime_error("force abort");  // inverse restores 10
      });
    } catch (const std::runtime_error&) {
    }
  });

  await(stage, 1);
  const long dirty =
      stm.atomically([&](stm::Txn& tx) { return map.get(tx, 1).value(); });
  advance(stage, 2);
  doomed.join();

  EXPECT_EQ(dirty, 99) << "observed uncommitted state (the expected "
                          "violation on a lazily-detecting STM)";
  EXPECT_EQ(stm.atomically([&](stm::Txn& tx) { return map.get(tx, 1); }), 10)
      << "inverse restored the committed value";
}

// Theorem 5.1: pessimistic Proust holds abstract locks to transaction end,
// so concurrent readers see multi-key updates all-or-nothing.
TEST(Opacity, PessimisticReadersNeverSeePartialUpdates) {
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 64, std::chrono::milliseconds(50));
  core::TxnHashMap<long, long, core::PessimisticLap<long>> map(lap);
  map.unsafe_put(1, 0);
  map.unsafe_put(2, 0);

  std::atomic<int> stage{0};

  std::thread writer([&] {
    stm.atomically([&](stm::Txn& tx) {
      map.put(tx, 1, 50);
      advance(stage, 1);
      await(stage, 2);  // hold the abstract locks while the reader tries
      map.put(tx, 2, 50);
    });
  });

  await(stage, 1);
  std::atomic<bool> reader_done{false};
  long r1 = -1, r2 = -1;
  std::thread reader([&] {
    stm.atomically([&](stm::Txn& tx) {
      r1 = map.get(tx, 1).value();
      r2 = map.get(tx, 2).value();
    });
    reader_done.store(true);
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(reader_done.load()) << "reader must block on the abstract lock";
  advance(stage, 2);
  writer.join();
  reader.join();

  EXPECT_TRUE((r1 == 0 && r2 == 0) || (r1 == 50 && r2 == 50))
      << "r1=" << r1 << " r2=" << r2;
  EXPECT_EQ(r1, 50) << "reader blocked until the writer committed";
}
