// Differential tests for the optimistic read fast path (DESIGN.md §12):
// sequence-validated unlocked reads racing mutators across the map-config
// matrix, read-your-writes through the admission layer, stats accounting,
// and a chaos column that forces fallbacks at the FastPathRead injection
// point. The invariant under test is always the same: a transaction that
// reads a pair of keys the writers only ever update *together* must see
// equal values — a torn fast-path read is exactly what would break it.
// The ReadSeqTable cases at the end pin the sequence words' pin/release
// contract that the races rely on, and that wrappers pin (and build their
// tables) only when their Stm has the fast path on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/lap.hpp"
#include "core/read_seq.hpp"
#include "core/txn_hash_map.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"
#include "map_configs.hpp"
#include "stm/chaos.hpp"
#include "stm/stm.hpp"

using namespace proust;
using namespace proust::testing;

namespace {

stm::StmOptions optimistic_opts() {
  stm::StmOptions o;
  o.optimistic_reads = true;
  return o;
}

constexpr long kHalf = 32;

/// Writers update (k, k+kHalf) to the same value in one transaction;
/// readers read both in one transaction and report any inequality.
/// Returns the number of violations observed.
long run_pair_race(MapUnderTest& map, int writer_rounds,
                   int reader_threads) {
  for (long k = 0; k < kHalf; ++k) {
    map.atomically([&](MapView& m) {
      m.put(k, 0);
      m.put(k + kHalf, 0);
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread writer([&] {
    for (long round = 1; round <= writer_rounds; ++round) {
      const long k = round % kHalf;
      map.atomically([&](MapView& m) {
        m.put(k, round);
        m.put(k + kHalf, round);
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      // Floor of 128 iterations: on a single-core box the writer can finish
      // before a reader is ever scheduled, and a zero-read race tests nothing.
      std::uint64_t i = 0;
      while (i < 128 || !stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(i++ % kHalf);
        long a = -1, b = -1;
        map.atomically([&](MapView& m) {
          a = m.get(k).value_or(-1);
          b = m.get(k + kHalf).value_or(-1);
        });
        if (a != b) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  return violations.load();
}

}  // namespace

TEST(ReadFastPath, PairConsistencyAcrossConfigs) {
  for (const auto& cfg : opaque_map_configs()) {
    auto map = cfg.make_with(optimistic_opts());
    EXPECT_EQ(run_pair_race(*map, /*writer_rounds=*/300, /*reader_threads=*/2),
              0)
        << cfg.name;
  }
}

TEST(ReadFastPath, ReadYourWritesThroughAdmission) {
  // The fast path must never serve a read that has a pending transactional
  // write behind it: eager wrappers have already mutated the base (and hold
  // the self-pinned sequence word); lazy wrappers route engaged-log reads
  // down the locked path. Either way the transaction sees its own effects.
  for (const auto& cfg : all_map_configs()) {
    auto map = cfg.make_with(optimistic_opts());
    map->atomically([&](MapView& m) {
      EXPECT_EQ(m.put(7, 70), std::nullopt) << cfg.name;
      EXPECT_EQ(m.get(7), 70) << cfg.name;
      EXPECT_TRUE(m.contains(7)) << cfg.name;
      EXPECT_EQ(m.remove(7), 70) << cfg.name;
      EXPECT_EQ(m.get(7), std::nullopt) << cfg.name;
      EXPECT_EQ(m.put(7, 71), std::nullopt) << cfg.name;
      EXPECT_EQ(m.get(7), 71) << cfg.name;
    });
    EXPECT_EQ(map->get1(7), 71) << cfg.name;
  }
}

TEST(ReadFastPath, StatsRecordHitsWhenEnabled) {
  for (const auto& cfg : opaque_map_configs()) {
    if (cfg.name.rfind("baseline_", 0) == 0) continue;  // no wrapper layer
    auto map = cfg.make_with(optimistic_opts());
    map->put1(1, 10);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(map->get1(1), 10) << cfg.name;
    const auto s = map->stats();
    EXPECT_GT(s.fastpath_hits, 0u) << cfg.name;
  }
}

TEST(ReadFastPath, StatsSilentWhenDisabled) {
  for (const auto& cfg : opaque_map_configs()) {
    auto map = cfg.make();  // default options: optimistic_reads = false
    map->put1(1, 10);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(map->get1(1), 10) << cfg.name;
    const auto s = map->stats();
    EXPECT_EQ(s.fastpath_hits, 0u) << cfg.name;
    EXPECT_EQ(s.fastpath_fallbacks, 0u) << cfg.name;
  }
}

TEST(ReadFastPath, ChaosForcesEveryAdmissionToFallBack) {
  // A FastPathRead abort-probability of 1 coerces every admission attempt
  // into the locked slow path — results must be unchanged and every forced
  // fallback must be visible in the stats.
  stm::ChaosConfig cc;
  cc.seed = 42;
  cc.at(stm::ChaosPoint::FastPathRead) = {.abort = 1.0, .timeout = 0,
                                          .delay = 0};
  stm::ChaosPolicy chaos(cc);
  stm::StmOptions o = optimistic_opts();
  o.chaos = &chaos;
  for (const auto& cfg : opaque_map_configs()) {
    if (cfg.name.rfind("baseline_", 0) == 0) continue;
    auto map = cfg.make_with(o);
    map->put1(1, 10);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(map->get1(1), 10) << cfg.name;
    const auto s = map->stats();
    EXPECT_EQ(s.fastpath_hits, 0u) << cfg.name;
    EXPECT_GT(s.fastpath_fallbacks, 0u) << cfg.name;
  }
  EXPECT_EQ(chaos.leaks(), 0u) << "seed=" << chaos.seed();
}

TEST(ReadFastPath, PairConsistencyUnderAggressiveChaos) {
  // The full chaos column: spurious aborts, forced LAP timeouts, injected
  // delays at every point including FastPathRead, racing the pair invariant.
  for (const auto& cfg : opaque_map_configs()) {
    if (cfg.name.rfind("baseline_", 0) == 0) continue;
    stm::ChaosPolicy chaos(stm::ChaosConfig::aggressive(7));
    chaos.install_lock_hook();
    stm::StmOptions o = optimistic_opts();
    o.chaos = &chaos;
    {
      auto map = cfg.make_with(o);
      EXPECT_EQ(
          run_pair_race(*map, /*writer_rounds=*/150, /*reader_threads=*/2), 0)
          << cfg.name << " seed=" << chaos.seed();
    }
    chaos.remove_lock_hook();
    EXPECT_EQ(chaos.leaks(), 0u) << cfg.name << " seed=" << chaos.seed();
  }
}

TEST(ReadFastPath, OrderedMapPairConsistency) {
  // EagerAll: an eager/optimistic wrapper is opaque only on an STM that
  // detects read/write conflicts eagerly (Thm 5.2, footnote 3); on Lazy a
  // committed reader may see a torn pair with or without the fast path.
  using OptLap = core::OptimisticLap<std::size_t, core::StripeHasher>;
  stm::Stm stm(stm::Mode::EagerAll, optimistic_opts());
  OptLap lap(stm, 64);
  core::TxnOrderedMap<long, OptLap> map(lap, 0, 1023, 64);
  for (long k = 0; k < kHalf; ++k) {
    stm.atomically([&](stm::Txn& tx) {
      map.put(tx, k, 0);
      map.put(tx, k + kHalf, 0);
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread writer([&] {
    for (long round = 1; round <= 300; ++round) {
      const long k = round % kHalf;
      stm.atomically([&](stm::Txn& tx) {
        map.put(tx, k, round);
        map.put(tx, k + kHalf, round);
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    // Iteration floor as in run_pair_race: guarantee reads happen even when
    // the writer wins every scheduling race on a small machine.
    std::uint64_t i = 0;
    while (i < 128 || !stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(i++ % kHalf);
      long a = -1, b = -1;
      stm.atomically([&](stm::Txn& tx) {
        a = map.get(tx, k).value_or(-1);
        b = map.get(tx, k + kHalf).value_or(-1);
      });
      if (a != b) violations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(stm.stats().snapshot().fastpath_hits, 0u);
}

TEST(ReadFastPath, PQueueMinRacesChurn) {
  // Churn keeps values inside [1, 1000] with 1000 permanently present; a
  // fast-path min() must always see something in that window.
  using PessLap = core::PessimisticLap<core::PQueueState>;
  stm::Stm stm(stm::Mode::Lazy, optimistic_opts());
  PessLap lap(stm, 8);
  core::TxnPriorityQueue<long, PessLap> pq(lap);
  pq.unsafe_insert(1000);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread writer([&] {
    for (long round = 0; round < 300; ++round) {
      const long v = 1 + (round * 13) % 999;
      stm.atomically([&](stm::Txn& tx) { pq.insert(tx, v); });
      stm.atomically([&](stm::Txn& tx) { (void)pq.remove_min(tx); });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    std::uint64_t i = 0;
    while (i < 128 || !stop.load(std::memory_order_acquire)) {
      ++i;
      std::optional<long> m;
      stm.atomically([&](stm::Txn& tx) { m = pq.min(tx); });
      if (!m || *m < 1 || *m > 1000) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

// --- ReadSeqTable pin/release contract ---------------------------------------
// A mutator pins a stripe's word odd at most once per attempt, and the
// table's finish hook bumps it back even on every outcome.

TEST(ReadSeqTable, RepinIsANoOpAndCommitReleases) {
  core::ReadSeqTable table(8);
  EXPECT_EQ(table.stripes(), 8u);
  EXPECT_EQ(table.word(3), table.word(11));  // stripe index is masked
  stm::Stm stm(stm::Mode::Lazy);
  stm.atomically([&](stm::Txn& tx) {
    table.writer_pin(tx, 3);
    table.writer_pin(tx, 3);
    EXPECT_EQ(table.load(3), 1u);  // pinned once: 0 -> 1, not 2
    EXPECT_EQ(table.load(4), 0u);
  });
  EXPECT_EQ(table.load(3), 2u);
  EXPECT_TRUE(core::ReadSeqTable::stable(table.load(3)));
  EXPECT_EQ(table.load(4), 0u);
}

TEST(ReadSeqTable, UserExceptionAbortReleases) {
  core::ReadSeqTable table(4);
  stm::Stm stm(stm::Mode::Lazy);
  struct Bail {};
  EXPECT_THROW(stm.atomically([&](stm::Txn& tx) {
                 table.writer_pin(tx, 1);
                 throw Bail{};
               }),
               Bail);
  EXPECT_EQ(table.load(1), 2u);
}

TEST(ReadSeqTable, ConflictRetryReleasesBeforeRepinning) {
  core::ReadSeqTable table(4);
  stm::Stm stm(stm::Mode::Lazy);
  std::vector<std::uint64_t> seen;  // word before and after each attempt's pin
  int attempts = 0;
  stm.atomically([&](stm::Txn& tx) {
    seen.push_back(table.load(1));
    table.writer_pin(tx, 1);
    seen.push_back(table.load(1));
    if (++attempts == 1) tx.retry(stm::AbortReason::ValidationFailed);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(table.load(1), 4u);
}

TEST(ReadSeqTable, WrappersPinOnlyWithOptimisticReads) {
  // Nothing reads the sequence words unless the wrapper's Stm has the fast
  // path on, so by default a mutation pins nothing and the tables are
  // never built; with the option on, every eager wrapper pins as before.
  using MapLap = core::OptimisticLap<long>;
  using StripeLap = core::OptimisticLap<std::size_t, core::StripeHasher>;
  using PqLap = core::PessimisticLap<core::PQueueState>;
  for (const bool optimistic : {false, true}) {
    SCOPED_TRACE(optimistic ? "optimistic_reads" : "defaults");
    stm::StmOptions opts;
    opts.optimistic_reads = optimistic;
    stm::Stm stm(stm::Mode::EagerAll, opts);
    MapLap map_lap(stm, 64);
    StripeLap stripe_lap(stm, 64);
    PqLap pq_lap(stm, 8);
    core::TxnHashMap<long, long, MapLap> map(map_lap, 16);
    core::TxnOrderedMap<long, StripeLap> ordered(stripe_lap, 0, 1023, 16);
    core::TxnPriorityQueue<long, PqLap> pq(pq_lap);
    std::vector<std::size_t> holds;  // seq_holds() after each mutation
    stm.atomically([&](stm::Txn& tx) {
      holds.clear();
      map.put(tx, 1, 10);
      holds.push_back(tx.seq_holds().size());
      (void)map.remove(tx, 1);
      holds.push_back(tx.seq_holds().size());
      ordered.put(tx, 5, 50);
      holds.push_back(tx.seq_holds().size());
      (void)ordered.remove(tx, 5);
      holds.push_back(tx.seq_holds().size());
      pq.insert(tx, 7);
      holds.push_back(tx.seq_holds().size());
      (void)pq.remove_min(tx);
      holds.push_back(tx.seq_holds().size());
    });
    const std::vector<std::size_t> expected =
        optimistic ? std::vector<std::size_t>{1, 1, 2, 2, 3, 3}
                   : std::vector<std::size_t>(6, 0);
    EXPECT_EQ(holds, expected);
  }
}
