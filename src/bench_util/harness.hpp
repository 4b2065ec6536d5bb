// The §7 measurement harness: perform `total_ops` operations split across
// `threads` workers; warm up, then time several executions and report mean,
// standard deviation and minimum — the paper's methodology with the JVM
// warm-up replaced by harness warm-up runs.
//
// One runner serves every workload family. Each worker clocks its own span
// and a run lasts min(start) .. max(stop): timing from the coordinating
// thread undercounts on an oversubscribed box, because the coordinator can
// be scheduled after the start barrier so late that the workers have
// already finished. Work a worker prepares before the start barrier (the
// map family's pre-generated op stream) stays outside the timed region.
#pragma once

#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util/topology.hpp"
#include "bench_util/workload.hpp"
#include "common/rng.hpp"
#include "stm/stm.hpp"

namespace proust::bench {

struct RunConfig {
  int threads = 1;
  long total_ops = 100000;
  int warmup_runs = 1;
  int timed_runs = 3;
  std::uint64_t seed = 42;
  /// Worker pinning: worker t binds to pin_plan[t % size] before the start
  /// barrier (topo::Topology::pin_plan). Empty (default) = no affinity
  /// calls. The one place pinning happens, so STM configurations and
  /// non-STM baselines like the global-lock map are bound alike.
  std::vector<int> pin_plan;
  // The map family's workload (run_map_throughput).
  int ops_per_txn = 1;
  double write_fraction = 0.5;
  long key_range = 1024;
  double zipf_theta = 0.0;  // 0 = uniform (the paper's setup)
};

struct RunResult {
  double mean_ms = 0;
  double sd_ms = 0;
  double min_ms = 0;  // fastest timed run — robust to CPU-steal noise
  int runs = 0;       // timed runs the times and stats cover
  /// STM counters accumulated over the timed runs (empty for non-STM
  /// baselines): attempts, aborts by reason, the attempts histogram.
  stm::StatsSnapshot stats;

  /// The mean run, or the fastest one. On a shared CPU, steal time inflates
  /// some runs by multiples of the true cost; the minimum is the standard
  /// estimator under such one-sided noise.
  double ms(bool use_min) const noexcept { return use_min ? min_ms : mean_ms; }
  /// Completed operations per second for one run of `total_ops`.
  double ops_per_sec(long total_ops, bool use_min) const noexcept {
    const double t = ms(use_min);
    return t <= 0 ? 0.0 : static_cast<double>(total_ops) / (t / 1000.0);
  }
  /// Aborted attempts as a fraction of started attempts.
  double abort_ratio() const noexcept {
    return stats.starts == 0 ? 0.0
                             : static_cast<double>(stats.total_aborts()) /
                                   static_cast<double>(stats.starts);
  }
};

namespace detail {
/// One run of `units` work units split across the workers. On worker t,
/// before the start barrier, `setup(t, n, seed)` returns the callable that
/// performs that worker's n units; only that call is timed.
template <class Setup>
double one_run(const RunConfig& cfg, long units, std::uint64_t seed,
               Setup& setup) {
  std::barrier sync(cfg.threads + 1);
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> starts(cfg.threads), stops(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (int t = 0; t < cfg.threads; ++t) {
    const long mine = units / cfg.threads + (t < units % cfg.threads ? 1 : 0);
    workers.emplace_back([&, t, mine] {
      if (!cfg.pin_plan.empty()) {
        topo::pin_self_to(
            cfg.pin_plan[static_cast<std::size_t>(t) % cfg.pin_plan.size()]);
      }
      auto work = setup(t, mine, seed);
      sync.arrive_and_wait();
      starts[t] = Clock::now();
      work();
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

inline RunResult reduce(const std::vector<double>& times, stm::Stm* stm) {
  RunResult r;
  r.runs = static_cast<int>(times.size());
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
  if (stm != nullptr) r.stats = stm->stats().snapshot();
  return r;
}
}  // namespace detail

/// Warm up, then time cfg.timed_runs runs of `units` work units (see
/// detail::one_run for `setup`). `before_run` runs on the calling thread
/// before every run, warm-up included — the place to restore state a run
/// consumes. `stm`'s stats are reset after the warm-up, so the result's
/// stats cover exactly the timed runs.
template <class Setup, class BeforeRun = void (*)()>
RunResult run_timed(
    const RunConfig& cfg, long units, Setup&& setup, stm::Stm* stm = nullptr,
    BeforeRun before_run = [] {}) {
  for (int i = 0; i < cfg.warmup_runs; ++i) {
    before_run();
    detail::one_run(cfg, units, cfg.seed + 1000 + i, setup);
  }
  if (stm != nullptr) stm->stats().reset();
  std::vector<double> times;
  for (int i = 0; i < cfg.timed_runs; ++i) {
    before_run();
    times.push_back(detail::one_run(cfg, units, cfg.seed + i, setup));
  }
  return detail::reduce(times, stm);
}

/// An arbitrary operation stream: each of cfg.total_ops operations is one
/// `op(t, rng)` call on worker t, with a per-worker generator reseeded per
/// run so repeats draw identical streams.
template <class OpFn, class BeforeRun = void (*)()>
RunResult run_ops_timed(
    const RunConfig& cfg, OpFn&& op, stm::Stm* stm = nullptr,
    BeforeRun before_run = [] {}) {
  return run_timed(
      cfg, cfg.total_ops,
      [&op](int t, long n, std::uint64_t seed) {
        return [&op, t, n,
                rng = Xoshiro256(seed * 0x9E3779B97F4A7C15ULL +
                                 static_cast<std::uint64_t>(t) * 1297 +
                                 11)]() mutable {
          for (long i = 0; i < n; ++i) op(t, rng);
        };
      },
      stm, before_run);
}

/// Prefill `n` keys spread evenly over the key range. Half the range (every
/// other key) is the steady-state occupancy of the put/remove balance, so
/// gets hit ~50%; the whole range makes every lookup hit.
template <class Adapter>
void prefill_keys(Adapter& adapter, long key_range, long n) {
  for (long i = 0; i < n; ++i) adapter.prefill(i * key_range / n, i);
}

namespace detail {
/// The map family's worker setup: pre-generate the worker's whole operation
/// stream outside the timed region — the RNG draws (and the Zipf inversion)
/// are harness cost, and drawing inside the transaction body would make a
/// retried transaction replay *different* ops.
template <class Adapter>
auto map_setup(Adapter& adapter, const RunConfig& cfg) {
  return [&adapter, &cfg](int t, long txns, std::uint64_t seed) {
    MapWorkload wl(cfg.write_fraction, cfg.key_range,
                   seed * 0x9E3779B97F4A7C15ULL + t, cfg.zipf_theta);
    std::vector<Op> ops(static_cast<std::size_t>(txns * cfg.ops_per_txn));
    for (Op& o : ops) o = wl.next();
    return [&adapter, o = cfg.ops_per_txn, ops = std::move(ops)] {
      for (std::size_t at = 0; at < ops.size(); at += o) {
        adapter.txn([&](auto& view) {
          for (std::size_t i = at; i < at + o; ++i) {
            switch (ops[i].kind) {
              case OpKind::Get: view.get(ops[i].key); break;
              case OpKind::Put: view.put(ops[i].key, ops[i].value); break;
              case OpKind::Remove: view.remove(ops[i].key); break;
            }
          }
        });
      }
    };
  };
}

inline long map_txns(const RunConfig& cfg) {
  return (cfg.total_ops + cfg.ops_per_txn - 1) / cfg.ops_per_txn;
}
}  // namespace detail

/// The §7 map workload: cfg.total_ops random operations, ops_per_txn per
/// transaction, a write_fraction of them puts/removes.
template <class Adapter>
RunResult run_map_throughput(Adapter& adapter, const RunConfig& cfg) {
  return run_timed(cfg, detail::map_txns(cfg),
                   detail::map_setup(adapter, cfg), adapter.stm());
}

/// A/B comparison on the map workload: interleave the sides' runs so all
/// sample the same noise phases (CPU steal, frequency drift). Back-to-back
/// blocks — all of A's runs, then all of B's — can land in different phases
/// and skew the A:B ratio by more than the effect under test; adjacent runs
/// keep the ratio meaningful even when absolute times wander.
template <class Adapter>
std::vector<RunResult> run_map_interleaved(const std::vector<Adapter*>& sides,
                                           const RunConfig& cfg) {
  const long txns = detail::map_txns(cfg);
  std::vector<decltype(detail::map_setup(*sides[0], cfg))> setups;
  for (Adapter* a : sides) setups.push_back(detail::map_setup(*a, cfg));
  for (int i = 0; i < cfg.warmup_runs; ++i) {
    for (auto& s : setups) detail::one_run(cfg, txns, cfg.seed + 1000 + i, s);
  }
  for (Adapter* a : sides) a->stm()->stats().reset();
  std::vector<std::vector<double>> times(sides.size());
  for (int i = 0; i < cfg.timed_runs; ++i) {
    for (std::size_t s = 0; s < sides.size(); ++s) {
      times[s].push_back(detail::one_run(cfg, txns, cfg.seed + i, setups[s]));
    }
  }
  std::vector<RunResult> out;
  for (std::size_t s = 0; s < sides.size(); ++s) {
    out.push_back(detail::reduce(times[s], sides[s]->stm()));
  }
  return out;
}

}  // namespace proust::bench
