// Direct tests for AbstractLock and the two lock-allocator policies — the
// framework pieces underneath every wrapper — plus the TxnSet adapter.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/abstract_lock.hpp"
#include "core/lap.hpp"
#include "core/txn_set.hpp"
#include "stm/stm.hpp"

using namespace proust;
using namespace std::chrono_literals;

TEST(OptimisticLap, WriteAcquireWritesUniqueStampToCaSlot) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  stm.stats().reset();
  stm.atomically([&](stm::Txn& tx) {
    lap.acquire(tx, 3, /*write=*/true);
    lap.acquire(tx, 3, /*write=*/true);  // second write, new stamp
  });
  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.reads, 2u) << "write acquires validate the stripe first";
}

TEST(OptimisticLap, ReadAcquireIsValidatedRead) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  stm.stats().reset();
  stm.atomically([&](stm::Txn& tx) { lap.acquire(tx, 5, /*write=*/false); });
  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 0u);
}

TEST(OptimisticLap, StripingMapsKeysModuloRegion) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 8);
  EXPECT_EQ(lap.region_size(), 8u);
  // Two txns writing keys that collide modulo the region must conflict:
  // demonstrate via the Lazy STM — a committed conflicting CA write
  // invalidates the reader.
  stm::Stm stm2(stm::Mode::Lazy);
  core::OptimisticLap<long> small(stm2, 1);  // everything collides
  std::atomic<int> stage{0};
  int attempts = 0;
  std::thread reader([&] {
    stm2.atomically([&](stm::Txn& tx) {
      ++attempts;
      small.acquire(tx, 100, /*write=*/false);
      if (attempts == 1) {
        stage.store(1);
        while (stage.load() < 2) std::this_thread::yield();
      }
      small.acquire(tx, 100, /*write=*/false);
    });
  });
  while (stage.load() < 1) std::this_thread::yield();
  stm2.atomically([&](stm::Txn& tx) {
    small.acquire(tx, 999, /*write=*/true);  // different key, same slot
  });
  stage.store(2);
  reader.join();
  EXPECT_EQ(attempts, 2) << "false conflict via striping must abort reader";
}

TEST(PessimisticLap, LocksReleasedOnCommitAndAbort) {
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 16, std::chrono::milliseconds(5));
  // Commit path.
  stm.atomically([&](stm::Txn& tx) { lap.acquire(tx, 1, true); });
  // If the lock leaked, this second acquisition from a different txn object
  // would time out.
  stm.atomically([&](stm::Txn& tx) { lap.acquire(tx, 1, true); });
  // Abort path.
  EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                 lap.acquire(tx, 2, true);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  stm.atomically([&](stm::Txn& tx) { lap.acquire(tx, 2, true); });
}

TEST(PessimisticLap, TimeoutAbortsAndRetries) {
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 16, std::chrono::milliseconds(2));
  std::atomic<int> stage{0};
  std::thread holder([&] {
    stm.atomically([&](stm::Txn& tx) {
      lap.acquire(tx, 7, /*write=*/true);
      stage.store(1);
      while (stage.load() < 2) std::this_thread::yield();
    });
  });
  while (stage.load() < 1) std::this_thread::yield();
  std::atomic<bool> done{false};
  std::thread contender([&] {
    stm.atomically([&](stm::Txn& tx) { lap.acquire(tx, 7, true); });
    done.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(done.load());
  stage.store(2);
  holder.join();
  contender.join();
  EXPECT_TRUE(done.load());
  EXPECT_GE(stm.stats().snapshot().aborts[static_cast<std::size_t>(
                stm::AbortReason::AbstractLockTimeout)],
            1u);
}

TEST(PessimisticLap, ReleaseWalksEachHeldStripeExactlyOnce) {
  // Regression for the old remember_for_release: its back()-only dedup
  // missed re-acquires of any *earlier* stripe, so alternating acquisitions
  // grew the release list without bound and released stripes repeatedly.
  // The hold records keep exactly one entry per distinct stripe.
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 16, std::chrono::milliseconds(5));
  std::size_t after_first_round = 0, after_many_rounds = 0;
  stm.atomically([&](stm::Txn& tx) {
    for (long k = 0; k < 4; ++k) lap.acquire(tx, k, /*write=*/true);
    after_first_round = tx.lock_holds().size();
    for (int rep = 0; rep < 50; ++rep) {
      for (long k = 0; k < 4; ++k) lap.acquire(tx, k, rep % 2 == 0);
    }
    after_many_rounds = tx.lock_holds().size();
  });
  EXPECT_EQ(after_many_rounds, after_first_round)
      << "re-acquiring earlier stripes must not add release entries";
  EXPECT_LE(after_first_round, 4u);
  // And the walk really released everything: a fresh transaction can take
  // every stripe in write mode immediately.
  stm.atomically([&](stm::Txn& tx) {
    for (long k = 0; k < 4; ++k) lap.acquire(tx, k, /*write=*/true);
  });
}

TEST(PessimisticLap, TwoLapsReleaseOnlyTheirOwnHolds) {
  // Hold records from different LAPs share the transaction's flat array;
  // each LAP's finish hook must release exactly its own group.
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap_a(stm, 8, std::chrono::milliseconds(5));
  core::PessimisticLap<long> lap_b(stm, 8, std::chrono::milliseconds(5));
  stm.atomically([&](stm::Txn& tx) {
    lap_a.acquire(tx, 1, true);
    lap_b.acquire(tx, 1, true);
    lap_a.acquire(tx, 2, false);
    EXPECT_GE(tx.lock_holds().size(), 2u);
  });
  // Both laps fully released on commit.
  stm.atomically([&](stm::Txn& tx) {
    lap_a.acquire(tx, 1, true);
    lap_a.acquire(tx, 2, true);
    lap_b.acquire(tx, 1, true);
  });
}

TEST(AbstractLock, EagerInverseReceivesOpResult) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  core::AbstractLock<long, core::OptimisticLap<long>> lock(
      lap, core::UpdateStrategy::Eager);
  long inverse_saw = -1;
  try {
    stm.atomically([&](stm::Txn& tx) {
      const long r = lock.apply(
          tx, {core::Write(1L)}, [] { return 42L; },
          [&](long result) { inverse_saw = result; });
      EXPECT_EQ(r, 42);
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(inverse_saw, 42);
}

TEST(AbstractLock, VoidOpWithInverse) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  core::AbstractLock<long, core::OptimisticLap<long>> lock(
      lap, core::UpdateStrategy::Eager);
  int op_runs = 0, inverse_runs = 0;
  try {
    stm.atomically([&](stm::Txn& tx) {
      lock.apply(tx, {core::Write(1L)}, [&] { ++op_runs; },
                 [&] { ++inverse_runs; });
      throw std::runtime_error("abort");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(op_runs, 1);
  EXPECT_EQ(inverse_runs, 1);
}

TEST(AbstractLock, LazyWriteLocksReadAfterOp) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  core::AbstractLock<long, core::OptimisticLap<long>> lock(
      lap, core::UpdateStrategy::Lazy);
  stm.stats().reset();
  stm.atomically([&](stm::Txn& tx) {
    lock.apply(tx, {core::Write(1L)}, [] { return 0; });
  });
  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.writes, 1u) << "CA write before the op";
  EXPECT_EQ(s.reads, 2u)
      << "validated read before the op + Theorem 5.3 read-after";
}

namespace {

/// Key k -> CA slot k, so two keys are known to sit on different slots.
struct IdentityHash {
  std::size_t operator()(long k) const noexcept {
    return static_cast<std::size_t>(k);
  }
};

/// A read-only lazy transaction reads B, then reads A through `apply`. On
/// the first attempt only, A's operation runs a whole writer transaction to
/// completion on another thread: it write-acquires A and B and sets both
/// values in its replay hook. The reader's acquire of A validated before
/// that commit and its base read of A ran after it, so only the read-after
/// on A's slot can tell; without it the reader commits a torn pair.
std::pair<long, long> lazy_read_pair_racing_a_replay(bool list_form) {
  using Lap = core::OptimisticLap<long, IdentityHash>;
  constexpr long kA = 1, kB = 2;
  stm::Stm stm(stm::Mode::Lazy);
  Lap lap(stm, 16);
  core::AbstractLock<long, Lap> lock(lap, core::UpdateStrategy::Lazy);
  long a = 0, b = 0;
  const auto read = [&](stm::Txn& tx, long key, auto op) {
    return list_form ? lock.apply(tx, {core::Read(key)}, op)
                     : lock.apply(tx, key, /*write=*/false, op);
  };
  return stm.atomically([&](stm::Txn& tx) {
    const long sb = read(tx, kB, [&] { return b; });
    const long sa = read(tx, kA, [&] {
      if (tx.attempt() == 1) {
        std::thread writer([&] {
          stm.atomically([&](stm::Txn& wtx) {
            lap.acquire(wtx, kA, /*write=*/true);
            lap.acquire(wtx, kB, /*write=*/true);
            wtx.on_commit_locked([&] {
              a = 1;
              b = 1;
            });
          });
        });
        writer.join();
      }
      return a;
    });
    return std::pair<long, long>{sa, sb};
  });
}

}  // namespace

TEST(AbstractLock, LazyLockedReadRevalidatesAfterOp) {
  const auto [a, b] = lazy_read_pair_racing_a_replay(/*list_form=*/false);
  EXPECT_EQ(a, b) << "a lazy locked read committed a torn pair";
}

TEST(AbstractLock, LazyLockedReadRevalidatesAfterOpInitializerList) {
  const auto [a, b] = lazy_read_pair_racing_a_replay(/*list_form=*/true);
  EXPECT_EQ(a, b) << "a lazy locked read committed a torn pair";
}

TEST(AbstractLock, EagerDoesNotReadAfterOp) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 16);
  core::AbstractLock<long, core::OptimisticLap<long>> lock(
      lap, core::UpdateStrategy::Eager);
  stm.stats().reset();
  stm.atomically([&](stm::Txn& tx) {
    lock.apply(tx, {core::Write(1L)}, [] { return 0; }, [](int) {});
  });
  const auto s = stm.stats().snapshot();
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.reads, 1u) << "read-before only; no read-after for eager";
}

TEST(TxnSet, AddRemoveContains) {
  stm::Stm stm(stm::Mode::EagerAll);
  core::OptimisticLap<long> lap(stm, 64);
  core::TxnSet<long, core::OptimisticLap<long>> set(lap);
  stm.atomically([&](stm::Txn& tx) {
    EXPECT_TRUE(set.add(tx, 5));
    EXPECT_FALSE(set.add(tx, 5));  // already present
    EXPECT_TRUE(set.contains(tx, 5));
    EXPECT_TRUE(set.remove(tx, 5));
    EXPECT_FALSE(set.remove(tx, 5));
    EXPECT_FALSE(set.contains(tx, 5));
  });
}

TEST(TxnSet, SizeAndAbort) {
  stm::Stm stm(stm::Mode::EagerAll);
  core::OptimisticLap<long> lap(stm, 64);
  core::TxnSet<long, core::OptimisticLap<long>> set(lap);
  stm.atomically([&](stm::Txn& tx) {
    set.add(tx, 1);
    set.add(tx, 2);
  });
  EXPECT_EQ(set.size(), 2);
  EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                 set.add(tx, 3);
                 set.remove(tx, 1);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(set.size(), 2);
  stm.atomically([&](stm::Txn& tx) {
    EXPECT_TRUE(set.contains(tx, 1));
    EXPECT_FALSE(set.contains(tx, 3));
  });
}

TEST(TxnSet, ConcurrentDisjointAddsDoNotConflict) {
  stm::Stm stm(stm::Mode::EagerAll);
  core::OptimisticLap<long> lap(stm, 1024);
  core::TxnSet<long, core::OptimisticLap<long>> set(lap);
  stm.stats().reset();
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (long i = 0; i < 500; ++i) {
        stm.atomically([&](stm::Txn& tx) { set.add(tx, t * 1000 + i); });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(set.size(), 2000);
}
