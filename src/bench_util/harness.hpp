// The §7 measurement harness: perform `total_ops` randomly selected
// operations on a shared map, split across `threads` threads, `ops_per_txn`
// operations per transaction; warm up, then time several executions and
// report mean and standard deviation — the paper's methodology with the JVM
// warm-up replaced by harness warm-up runs.
#pragma once

#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "stm/stats.hpp"

namespace proust::bench {

struct RunConfig {
  int threads = 1;
  int ops_per_txn = 1;
  double write_fraction = 0.5;
  long key_range = 1024;
  long total_ops = 100000;
  int warmup_runs = 1;
  int timed_runs = 3;
  std::uint64_t seed = 42;
  double zipf_theta = 0.0;  // 0 = uniform (the paper's setup)
  /// Worker pinning: worker t binds to pin_plan[t % size] before the start
  /// barrier (topo::Topology::pin_plan). Empty (default) = no affinity
  /// calls. The one place pinning happens, so STM configurations and
  /// non-STM baselines like the global-lock map are bound alike.
  std::vector<int> pin_plan;
};

struct RunResult {
  double mean_ms = 0;
  double sd_ms = 0;
  double min_ms = 0;  // fastest timed run — robust to CPU-steal noise
  std::uint64_t starts = 0;  // transaction attempts during timed runs
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  stm::StatsSnapshot stats;  // full breakdown (aborts by reason, extensions)

  /// Completed operations per second for one timed run of `total_ops`.
  double ops_per_sec(long total_ops) const noexcept {
    return mean_ms <= 0 ? 0.0
                        : static_cast<double>(total_ops) / (mean_ms / 1000.0);
  }
  /// Throughput of the fastest run. On a shared vCPU, steal time inflates
  /// some runs by multiples of the true cost; the minimum is the standard
  /// estimator under such one-sided noise (what the workload costs when the
  /// machine actually runs it).
  double ops_per_sec_min(long total_ops) const noexcept {
    return min_ms <= 0 ? 0.0
                       : static_cast<double>(total_ops) / (min_ms / 1000.0);
  }
  /// Aborted attempts as a fraction of started attempts.
  double abort_ratio() const noexcept {
    return starts == 0 ? 0.0
                       : static_cast<double>(aborts) /
                             static_cast<double>(starts);
  }
};

namespace detail {
template <class Adapter>
double one_run(Adapter& adapter, const RunConfig& cfg, std::uint64_t seed) {
  const long total_txns =
      (cfg.total_ops + cfg.ops_per_txn - 1) / cfg.ops_per_txn;
  std::barrier sync(cfg.threads + 1);
  // Each worker clocks its own span; the run is min(start) .. max(stop).
  // Timing from the coordinating thread undercounts badly on an
  // oversubscribed box: if it blocks on the start barrier and is scheduled
  // late, the workers can run to completion before it ever reads the
  // "start" clock.
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> starts(cfg.threads), stops(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (int t = 0; t < cfg.threads; ++t) {
    const long my_txns =
        total_txns / cfg.threads + (t < total_txns % cfg.threads ? 1 : 0);
    workers.emplace_back([&, t, my_txns] {
      if (!cfg.pin_plan.empty()) {
        topo::pin_self_to(
            cfg.pin_plan[static_cast<std::size_t>(t) % cfg.pin_plan.size()]);
      }
      // Pre-generate the thread's whole operation stream outside the timed
      // region: the RNG draws (and the Zipf inversion) are harness cost,
      // not structure-under-test cost, and drawing inside the transaction
      // body would make a retried transaction replay *different* ops.
      MapWorkload wl(cfg.write_fraction, cfg.key_range,
                     seed * 0x9E3779B97F4A7C15ULL + t, cfg.zipf_theta);
      std::vector<Op> ops;
      ops.reserve(static_cast<std::size_t>(my_txns) * cfg.ops_per_txn);
      for (long i = 0; i < my_txns * cfg.ops_per_txn; ++i) {
        ops.push_back(wl.next());
      }
      sync.arrive_and_wait();
      starts[t] = Clock::now();
      std::size_t at = 0;
      for (long i = 0; i < my_txns; ++i) {
        adapter.txn([&](auto& view) {
          for (int op = 0; op < cfg.ops_per_txn; ++op) {
            const Op& o = ops[at + static_cast<std::size_t>(op)];
            switch (o.kind) {
              case OpKind::Get: view.get(o.key); break;
              case OpKind::Put: view.put(o.key, o.value); break;
              case OpKind::Remove: view.remove(o.key); break;
            }
          }
        });
        at += static_cast<std::size_t>(cfg.ops_per_txn);
      }
      stops[t] = Clock::now();
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  sync.arrive_and_wait();
  for (auto& w : workers) w.join();
  Clock::time_point first = starts[0];
  Clock::time_point last = stops[0];
  for (int t = 1; t < cfg.threads; ++t) {
    if (starts[t] < first) first = starts[t];
    if (stops[t] > last) last = stops[t];
  }
  return std::chrono::duration<double, std::milli>(last - first).count();
}
}  // namespace detail

/// Prefill half the key range so gets hit ~50% (steady-state occupancy of
/// the put/remove balance).
template <class Adapter>
void prefill_half(Adapter& adapter, long key_range) {
  for (long k = 0; k < key_range; k += 2) adapter.prefill(k, k);
}

namespace detail {
template <class Adapter>
RunResult reduce_runs(Adapter& adapter, const std::vector<double>& times) {
  RunResult r;
  double sum = 0;
  r.min_ms = times.front();
  for (double t : times) {
    sum += t;
    if (t < r.min_ms) r.min_ms = t;
  }
  r.mean_ms = sum / times.size();
  double var = 0;
  for (double t : times) var += (t - r.mean_ms) * (t - r.mean_ms);
  r.sd_ms = times.size() > 1 ? std::sqrt(var / (times.size() - 1)) : 0.0;
  const stm::StatsSnapshot s = adapter.stats();
  r.starts = s.starts;
  r.commits = s.commits;
  r.aborts = s.total_aborts();
  r.stats = s;
  return r;
}
}  // namespace detail

template <class Adapter>
RunResult run_map_throughput(Adapter& adapter, const RunConfig& cfg) {
  for (int i = 0; i < cfg.warmup_runs; ++i) {
    detail::one_run(adapter, cfg, cfg.seed + 1000 + i);
  }
  adapter.reset_stats();
  std::vector<double> times;
  times.reserve(cfg.timed_runs);
  for (int i = 0; i < cfg.timed_runs; ++i) {
    times.push_back(detail::one_run(adapter, cfg, cfg.seed + i));
  }
  return detail::reduce_runs(adapter, times);
}

/// Run durations only — for benches whose stats come from elsewhere (or
/// nowhere, like lock-based baselines).
struct TimedRuns {
  double mean_ms = 0;
  double sd_ms = 0;
  double min_ms = 0;

  double ops_per_sec(long total_ops, bool use_min) const noexcept {
    const double ms = use_min ? min_ms : mean_ms;
    return ms <= 0 ? 0.0 : static_cast<double>(total_ops) / (ms / 1000.0);
  }
};

namespace detail {
inline TimedRuns reduce_times(const std::vector<double>& times) {
  TimedRuns r;
  double sum = 0;
  r.min_ms = times.front();
  for (double t : times) {
    sum += t;
    if (t < r.min_ms) r.min_ms = t;
  }
  r.mean_ms = sum / static_cast<double>(times.size());
  double var = 0;
  for (double t : times) var += (t - r.mean_ms) * (t - r.mean_ms);
  r.sd_ms = times.size() > 1
                ? std::sqrt(var / static_cast<double>(times.size() - 1))
                : 0.0;
  return r;
}

/// Per-worker-clocked single run of an arbitrary operation stream: worker t
/// calls `op(t, rng)` `iters` times; the run spans min(start)..max(stop)
/// (see one_run for why coordinator clocks undercount). The generic runner
/// behind the pqueue / ordered-map scenario families.
template <class OpFn>
double one_ops_run(int threads, long iters, std::uint64_t seed,
                   const std::vector<int>& pin_plan, OpFn&& op) {
  std::barrier sync(threads + 1);
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> starts(threads), stops(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (!pin_plan.empty()) {
        topo::pin_self_to(
            pin_plan[static_cast<std::size_t>(t) % pin_plan.size()]);
      }
      Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL +
                     static_cast<std::uint64_t>(t) * 1297 + 11);
      sync.arrive_and_wait();
      starts[t] = Clock::now();
      for (long i = 0; i < iters; ++i) op(t, rng);
      stops[t] = Clock::now();
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  sync.arrive_and_wait();
  for (auto& w : workers) w.join();
  Clock::time_point first = starts[0];
  Clock::time_point last = stops[0];
  for (int t = 1; t < threads; ++t) {
    if (starts[t] < first) first = starts[t];
    if (stops[t] > last) last = stops[t];
  }
  return std::chrono::duration<double, std::milli>(last - first).count();
}
}  // namespace detail

/// Warm up, then time `timed_runs` executions of `iters` ops on each of
/// `threads` workers (per-worker clocks). `op(t, rng)` performs one
/// operation; reseeded per run so repeats draw identical streams.
/// `after_warmup` (when non-null) runs between the warm-up and the timed
/// runs — the place to reset STM stats so abort ratios cover only what was
/// measured.
template <class OpFn, class AfterWarmup = void (*)()>
TimedRuns run_ops_timed(
    int threads, long iters, int warmup_runs, int timed_runs,
    std::uint64_t seed, const std::vector<int>& pin_plan, OpFn&& op,
    AfterWarmup after_warmup = [] {}) {
  for (int i = 0; i < warmup_runs; ++i) {
    detail::one_ops_run(threads, iters, seed + 1000 + i, pin_plan, op);
  }
  after_warmup();
  std::vector<double> times;
  times.reserve(timed_runs);
  for (int i = 0; i < timed_runs; ++i) {
    times.push_back(
        detail::one_ops_run(threads, iters, seed + i, pin_plan, op));
  }
  return detail::reduce_times(times);
}

/// A/B comparison: interleave the two adapters' timed runs so both sample
/// the same noise phases (CPU steal, frequency drift). Back-to-back blocks
/// — all of A's runs, then all of B's — can land in different phases and
/// skew the A:B ratio by more than the effect under test; adjacent paired
/// runs keep the ratio meaningful even when absolute times wander.
template <class A, class B>
std::pair<RunResult, RunResult> run_map_throughput_paired(A& a, B& b,
                                                          const RunConfig& cfg) {
  for (int i = 0; i < cfg.warmup_runs; ++i) {
    detail::one_run(a, cfg, cfg.seed + 1000 + i);
    detail::one_run(b, cfg, cfg.seed + 1000 + i);
  }
  a.reset_stats();
  b.reset_stats();
  std::vector<double> ta, tb;
  ta.reserve(cfg.timed_runs);
  tb.reserve(cfg.timed_runs);
  for (int i = 0; i < cfg.timed_runs; ++i) {
    ta.push_back(detail::one_run(a, cfg, cfg.seed + i));
    tb.push_back(detail::one_run(b, cfg, cfg.seed + i));
  }
  return {detail::reduce_runs(a, ta), detail::reduce_runs(b, tb)};
}

}  // namespace proust::bench
