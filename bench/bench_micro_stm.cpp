// Microbenchmarks of the raw STM engine: per-operation costs of reads,
// writes, commits and conflict-abstraction accesses in each mode. These
// quantify the constant factors under the Figure 4 curves.
//
// Two entry points:
//   default          — the google-benchmark suite below.
//   --json=<path>    — a deterministic fixed-iteration "trajectory" run with
//                      machine-readable output; BENCH_STM.json at the repo
//                      top level records these across PRs. --label=<str>
//                      tags the run (defaults to "current"). Two sections:
//                      the canonical single-thread workloads (read_only,
//                      write_heavy, read_modify_write, write_large) in every
//                      mode, and a multi-thread sweep (1/2/4/8/16 threads,
//                      override with --mt-threads=) of write workloads,
//                      which is what captures commit-path scaling rather
//                      than just constant factors.
#include <benchmark/benchmark.h>

#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "core/lap.hpp"
#include "stm/chaos.hpp"
#include "stm/stm.hpp"

using namespace proust;

static void BM_ReadOnlyTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stm.atomically([&](stm::Txn& tx) { return tx.read(v); }));
  }
}
BENCHMARK(BM_ReadOnlyTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_WriteTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(0);
  long i = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) { tx.write(v, ++i); });
  }
}
BENCHMARK(BM_WriteTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_ReadModifyWriteTxn(benchmark::State& state) {
  stm::Stm stm(static_cast<stm::Mode>(state.range(0)));
  stm::Var<long> v(0);
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) { tx.write(v, tx.read(v) + 1); });
  }
}
BENCHMARK(BM_ReadModifyWriteTxn)->Arg(0)->Arg(1)->Arg(2);

static void BM_TxnWithNVars(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  std::vector<stm::Var<long>> vars(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      for (auto& v : vars) tx.write(v, tx.read(v) + 1);
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TxnWithNVars)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_ConflictAbstractionAcquire(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::OptimisticLap<long> lap(stm, 1024);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      lap.acquire(tx, ++k & 1023, /*write=*/true);
    });
  }
}
BENCHMARK(BM_ConflictAbstractionAcquire);

static void BM_PessimisticAbstractLockAcquire(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  core::PessimisticLap<long> lap(stm, 1024);
  long k = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      lap.acquire(tx, ++k & 1023, /*write=*/true);
    });
  }
}
BENCHMARK(BM_PessimisticAbstractLockAcquire);

static void BM_TxnLocalCreation(benchmark::State& state) {
  stm::Stm stm(stm::Mode::Lazy);
  int key = 0;
  for (auto _ : state) {
    stm.atomically([&](stm::Txn& tx) {
      benchmark::DoNotOptimize(tx.local<long>(&key, [] { return 1L; }));
    });
  }
}
BENCHMARK(BM_TxnLocalCreation);

// --- Deterministic trajectory run (--json) ---------------------------------

namespace {

/// Run `txns` transactions of `body`, each counting as `ops_per_txn`
/// accesses, and return accesses per second.
template <class Body>
double timed_txns(long txns, int ops_per_txn, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < txns; ++i) body(i);
  const auto stop = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(stop - start).count();
  return sec <= 0 ? 0.0
                  : static_cast<double>(txns) * ops_per_txn / sec;
}

struct Cell {
  const char* workload;
  int ops_per_txn;
  double write_fraction;
  double ops_per_sec;
  double abort_ratio;
};

Cell run_cell(stm::Stm& stm, const char* workload, long txns) {
  using stm::Txn;
  Cell cell{workload, 1, 0, 0, 0};
  const long warmup = txns / 10 + 1;

  auto measure = [&](int ops_per_txn, double u, auto&& body) {
    for (long i = 0; i < warmup; ++i) body(i);
    stm.stats().reset();
    cell.ops_per_txn = ops_per_txn;
    cell.write_fraction = u;
    cell.ops_per_sec = timed_txns(txns, ops_per_txn, body);
    cell.abort_ratio = stm.stats().snapshot().abort_ratio();
  };

  if (std::string_view(workload) == "read_only") {
    stm::Var<long> v(7);
    long sink = 0;
    measure(1, 0.0, [&](long) {
      sink += stm.atomically([&](Txn& tx) { return tx.read(v); });
    });
    if (sink == 42) std::printf("#");  // defeat dead-code elimination
  } else if (std::string_view(workload) == "write_heavy") {
    std::vector<stm::Var<long>> vars(8);
    measure(8, 1.0, [&](long i) {
      stm.atomically([&](Txn& tx) {
        for (auto& v : vars) tx.write(v, i);
      });
    });
  } else if (std::string_view(workload) == "read_modify_write") {
    stm::Var<long> v(0);
    measure(2, 0.5, [&](long) {
      stm.atomically([&](Txn& tx) { tx.write(v, tx.read(v) + 1); });
    });
  } else {  // write_large: 64 distinct vars, exercising the flat-table tier
    std::vector<stm::Var<long>> vars(64);
    measure(64, 1.0, [&](long i) {
      stm.atomically([&](Txn& tx) {
        for (auto& v : vars) tx.write(v, i);
      });
    });
  }
  return cell;
}

// --- Multi-thread sweep ------------------------------------------------------

/// Split `total_txns` across `threads` workers, release them through a
/// barrier, and time the whole batch. `per_thread(t, my_txns)` runs on its
/// own thread. Returns elapsed seconds.
template <class PerThread>
double timed_mt(int threads, long total_txns, PerThread&& per_thread) {
  std::barrier sync(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    const long my_txns =
        total_txns / threads + (t < total_txns % threads ? 1 : 0);
    workers.emplace_back([&, t, my_txns] {
      sync.arrive_and_wait();
      per_thread(t, my_txns);
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  sync.arrive_and_wait();
  const auto stop = std::chrono::steady_clock::now();
  for (auto& w : workers) w.join();
  return std::chrono::duration<double>(stop - start).count();
}

struct MtSpec {
  const char* workload;
  stm::Mode mode;
  int ops_per_txn;
  long total_txns;
};

/// One (workload, mode, threads) cell of the multi-thread sweep. Workloads
/// are write-shaped on purpose: writing commits are the only transactions
/// that touch the global clock, so they are where its cost shows up.
///   mt_write_heavy    — every txn writes the same 8 shared vars (w/w
///                       contention plus clock traffic)
///   mt_disjoint_write — each thread writes its own 8 vars (the clock is the
///                       only shared word: isolates commit-path overhead)
///   mt_counter        — single shared read-modify-write counter (maximum
///                       data contention)
bench::JsonRecord run_mt_cell(const MtSpec& spec, int threads,
                              stm::ChaosPolicy* chaos) {
  stm::StmOptions opts;
  opts.chaos = chaos;
  stm::Stm stm(spec.mode, opts);

  std::vector<stm::Var<long>> shared(8);
  std::vector<std::vector<stm::Var<long>>> mine(threads);
  for (auto& v : mine) v = std::vector<stm::Var<long>>(8);
  stm::Var<long> counter(0);

  auto body = [&](int t, long i) {
    if (std::string_view(spec.workload) == "mt_write_heavy") {
      stm.atomically([&](stm::Txn& tx) {
        for (auto& v : shared) tx.write(v, i);
      });
    } else if (std::string_view(spec.workload) == "mt_disjoint_write") {
      stm.atomically([&](stm::Txn& tx) {
        for (auto& v : mine[t]) tx.write(v, i);
      });
    } else {  // mt_counter
      stm.atomically(
          [&](stm::Txn& tx) { tx.write(counter, tx.read(counter) + 1); });
    }
  };

  const long warmup = spec.total_txns / 10 + 1;
  timed_mt(threads, warmup, [&](int t, long n) {
    for (long i = 0; i < n; ++i) body(t, i);
  });
  stm.stats().reset();
  const double sec = timed_mt(threads, spec.total_txns, [&](int t, long n) {
    for (long i = 0; i < n; ++i) body(t, i);
  });
  const stm::StatsSnapshot s = stm.stats().snapshot();

  bench::JsonRecord rec{
      "micro_stm_mt",
      spec.workload,
      stm::to_string(spec.mode),
      threads,
      spec.ops_per_txn,
      std::string_view(spec.workload) == "mt_counter" ? 0.5 : 1.0,
      sec <= 0 ? 0.0
               : static_cast<double>(spec.total_txns) * spec.ops_per_txn / sec,
      s.abort_ratio()};
  rec.with_stats(s);
  return rec;
}

int run_trajectory(const bench::Cli& cli) {
  const std::string path = cli.get("json", "BENCH_STM.json");
  const std::string label = cli.get("label", "current");
  const long scale = cli.get_long("scale", 1);

  // --chaos-seed=N runs the whole trajectory under deterministic fault
  // injection (stm/chaos.hpp) and attaches the per-point injected counters
  // to every record ("injected": {...}). Not for the tracked BENCH_STM.json
  // numbers — for measuring the overhead envelope of a chaos config and for
  // sanity-checking that injection counts reproduce for a given seed.
  std::unique_ptr<stm::ChaosPolicy> chaos;
  if (cli.has("chaos-seed")) {
    chaos = std::make_unique<stm::ChaosPolicy>(stm::ChaosConfig::standard(
        static_cast<std::uint64_t>(cli.get_long("chaos-seed", 1))));
    chaos->install_lock_hook();
  }
  stm::StmOptions base_opts;
  base_opts.chaos = chaos.get();

  struct Spec {
    const char* workload;
    long txns;
  };
  const Spec specs[] = {
      {"read_only", 2000000 * scale},
      {"write_heavy", 400000 * scale},
      {"read_modify_write", 1000000 * scale},
      {"write_large", 50000 * scale},
  };
  const stm::Mode modes[] = {stm::Mode::Lazy, stm::Mode::EagerWrite,
                             stm::Mode::EagerAll};

  bench::JsonWriter json(label);
  std::printf("%-20s %-12s %8s %8s %8s\n", "workload", "mode", "ops/txn",
              "Mops/s", "abort");
  for (const Spec& spec : specs) {
    for (stm::Mode mode : modes) {
      stm::Stm stm(mode, base_opts);
      const Cell cell = run_cell(stm, spec.workload, spec.txns);
      bench::JsonRecord rec{"micro_stm", cell.workload, stm::to_string(mode),
                            1, cell.ops_per_txn, cell.write_fraction,
                            cell.ops_per_sec, cell.abort_ratio};
      if (chaos) rec.with_stats(stm.stats().snapshot());
      json.add(std::move(rec));
      std::printf("%-20s %-12s %8d %8.2f %8.4f\n", cell.workload,
                  stm::to_string(mode), cell.ops_per_txn,
                  cell.ops_per_sec / 1e6, cell.abort_ratio);
    }
  }

  // Thread sweep over write-shaped workloads.
  const auto mt_threads =
      cli.get_longs("mt-threads", std::vector<long>{1, 2, 4, 8, 16});
  const MtSpec mt_specs[] = {
      {"mt_write_heavy", stm::Mode::Lazy, 8, 120000 * scale},
      {"mt_write_heavy", stm::Mode::EagerWrite, 8, 120000 * scale},
      {"mt_disjoint_write", stm::Mode::Lazy, 8, 120000 * scale},
      {"mt_disjoint_write", stm::Mode::EagerWrite, 8, 120000 * scale},
      {"mt_counter", stm::Mode::Lazy, 2, 120000 * scale},
  };
  std::printf("\n%-20s %-12s %8s %8s %8s\n", "workload", "mode", "threads",
              "Mops/s", "abort");
  for (const MtSpec& spec : mt_specs) {
    for (long t : mt_threads) {
      bench::JsonRecord rec =
          run_mt_cell(spec, static_cast<int>(t), chaos.get());
      std::printf("%-20s %-12s %8d %8.2f %8.4f\n", rec.workload.c_str(),
                  rec.mode.c_str(), rec.threads, rec.ops_per_sec / 1e6,
                  rec.abort_ratio);
      json.add(std::move(rec));
    }
  }

  if (!json.write(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (label: %s)\n", path.c_str(), label.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  if (cli.has("json")) return run_trajectory(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
