// Microbenchmarks of the base thread-safe containers vs. their Proustian
// wrappers: the per-operation price of transactionality (CA access + hook
// bookkeeping + shadow copies) over the raw structures the paper re-uses.
#include <benchmark/benchmark.h>

#include "containers/blocking_pqueue.hpp"
#include "containers/cow_heap.hpp"
#include "containers/snapshot_hamt.hpp"
#include "containers/striped_hash_map.hpp"
#include "core/lap.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_hash_map.hpp"

using namespace proust;

static void BM_StripedMapPut(benchmark::State& state) {
  containers::StripedHashMap<long, long> m;
  long k = 0;
  for (auto _ : state) {
    ++k;
    benchmark::DoNotOptimize(m.put(k & 1023, k));
  }
}
BENCHMARK(BM_StripedMapPut);

static void BM_StripedMapGet(benchmark::State& state) {
  containers::StripedHashMap<long, long> m;
  for (long i = 0; i < 1024; ++i) m.put(i, i);
  long k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.get(++k & 1023));
  }
}
BENCHMARK(BM_StripedMapGet);

static void BM_HamtPut(benchmark::State& state) {
  containers::SnapshotHamt<long, long> m;
  long k = 0;
  for (auto _ : state) {
    ++k;
    benchmark::DoNotOptimize(m.put(k & 1023, k));
  }
}
BENCHMARK(BM_HamtPut);

static void BM_HamtGet(benchmark::State& state) {
  containers::SnapshotHamt<long, long> m;
  for (long i = 0; i < 1024; ++i) m.put(i, i);
  long k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.get(++k & 1023));
  }
}
BENCHMARK(BM_HamtGet);

static void BM_HamtSnapshot(benchmark::State& state) {
  containers::SnapshotHamt<long, long> m;
  for (long i = 0; i < static_cast<long>(state.range(0)); ++i) m.put(i, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.snapshot());
  }
}
BENCHMARK(BM_HamtSnapshot)->Arg(16)->Arg(1024)->Arg(65536);

static void BM_CowHeapInsertRemove(benchmark::State& state) {
  containers::CowHeap<long> h;
  for (long i = 0; i < 1024; ++i) h.insert(i);
  long k = 0;
  for (auto _ : state) {
    h.insert(++k & 4095);
    benchmark::DoNotOptimize(h.remove_min());
  }
}
BENCHMARK(BM_CowHeapInsertRemove);

static void BM_BlockingPQueueAddPoll(benchmark::State& state) {
  containers::BlockingPriorityQueue<long> q;
  for (long i = 0; i < 1024; ++i) q.add(i);
  long k = 0;
  for (auto _ : state) {
    q.add(++k & 4095);
    benchmark::DoNotOptimize(q.poll());
  }
}
BENCHMARK(BM_BlockingPQueueAddPoll);

// Wrapper overhead: the same put through the eager Proustian map.
static void BM_TxnHashMapPut(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 1024);
  core::TxnHashMap<long, long, core::OptimisticLap<long>> m(lap);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      benchmark::DoNotOptimize(m.put(tx, ++k & 1023, k));
    });
  }
}
BENCHMARK(BM_TxnHashMapPut);

static void BM_LazyTrieMapPut(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 1024);
  core::LazyTrieMap<long, long, core::OptimisticLap<long>> m(lap);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      benchmark::DoNotOptimize(m.put(tx, ++k & 1023, k));
    });
  }
}
BENCHMARK(BM_LazyTrieMapPut);

// Transactional lookups through the two read paths of one wrapper
// (DESIGN.md §12): over the optimistic LAP on EagerAll they run unlocked, as
// guarded reads of their CA slot; on Lazy each takes a validated CA read.
template <stm::Mode M>
static void BM_TxnHashMapGet(benchmark::State& state) {
  stm::Stm stm(M);
  core::OptimisticLap<long> lap(stm, 1024);
  core::TxnHashMap<long, long, core::OptimisticLap<long>> m(lap);
  for (long i = 0; i < 1024; ++i) {
    stm.atomically([&](stm::Txn& tx) { m.put(tx, i, i); });
  }
  // Arg = lookups per transaction: o>1 amortizes the fixed begin/commit
  // cost and exercises the per-admission revalidation scan (unlocked path)
  // or the growing read set (locked path).
  const long per_txn = state.range(0);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      for (long i = 0; i < per_txn; ++i) {
        benchmark::DoNotOptimize(m.get(tx, ++k & 1023));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * per_txn);
}
BENCHMARK_TEMPLATE(BM_TxnHashMapGet, stm::Mode::Lazy)
    ->Name("BM_TxnHashMapGet_Locked")->Arg(1)->Arg(8);
BENCHMARK_TEMPLATE(BM_TxnHashMapGet, stm::Mode::EagerAll)
    ->Name("BM_TxnHashMapGet_Unlocked")->Arg(1)->Arg(8);
