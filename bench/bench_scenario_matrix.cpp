// The unified Synchrobench-style scenario matrix: one driver sweeping
// update-ratio × key-range × Zipfian skew × transaction length ×
// range-scan mix × thread count × pinning policy across every map, ordered-
// map and priority-queue configuration plus the non-transactional
// baselines, emitting one flat CSV (bench_util/csv.hpp) that
// scripts/plot_results.py consumes. Three families share the schema:
//
//   map     — the §7 hash-map comparison (all adapters.hpp configs) driven
//             by the per-worker-timed map harness;
//   ordered — TxnOrderedMap interval-CA vs coarse (M=1) vs pure-STM treap
//             vs global-lock std::map, with range scans in the mix;
//   pqueue  — the §6 priority-queue case study (abstract-state CA,
//             group-lock pessimistic, boosting's 1-RW-lock approximation,
//             lazy snapshot COW heap).
//
// `--smoke` shrinks durations to CI scale while still visiting every
// (config × workload-cell) combination, so every cell of the matrix at
// least executes and emits parseable CSV on each push. Pinning cells set
// the harness-level worker plan (bench_util/harness.hpp), which binds STM
// configurations and non-STM baselines alike.
#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/pure_stm_tree_map.hpp"
#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/csv.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/json.hpp"
#include "bench_util/table.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"
#include "stm/stm.hpp"
#include "sync/reentrant_rw_lock.hpp"

using namespace proust;
using bench::Cli;
using bench::CsvWriter;
using bench::JsonRecord;
using bench::JsonWriter;
using bench::RunConfig;
using bench::RunResult;
using bench::Table;
using bench::TimedRuns;
using core::PQueueState;
using core::PQueueStateHasher;

namespace {

struct Cell {
  std::string family;
  std::string impl;
  std::string mode;  // "" for non-STM baselines
  int threads = 1;
  int ops_per_txn = 1;
  double u = 0;          // update fraction
  long key_range = 0;    // 0 = n/a (pqueue uses value range instead)
  double zipf = 0;       // 0 = uniform
  double scan_frac = 0;  // ordered family only
  long scan_width = 0;   // ordered family only
  std::string pin;
};

struct Ctx {
  Table* table = nullptr;
  CsvWriter* csv = nullptr;
  JsonWriter* json = nullptr;
  bool use_min = false;
  long ops = 0;
  int warmup = 0;
  int runs = 1;
};

std::vector<std::string> csv_columns() {
  std::vector<std::string> cols = {
      "family", "impl",      "mode",       "threads",    "ops_per_txn",
      "u",      "key_range", "zipf",       "scan_frac",  "scan_width",
      "pin",    "stat",      "total_ops",  "mean_ms",    "sd_ms",
      "min_ms", "ops_per_sec", "abort_ratio"};
  for (const std::string& c : CsvWriter::host_columns()) cols.push_back(c);
  return cols;
}

void emit(Ctx& ctx, const Cell& c, const TimedRuns& t, double abort_ratio) {
  const double ms = ctx.use_min ? t.min_ms : t.mean_ms;
  const double ops_s = t.ops_per_sec(ctx.ops, ctx.use_min);
  ctx.table->row({c.family, c.impl, std::to_string(c.threads),
                  CsvWriter::fmt(c.u, 2), c.pin, CsvWriter::fmt(ms, 1),
                  CsvWriter::fmt(100 * abort_ratio, 1)});
  std::vector<std::string> row = {
      c.family,
      c.impl,
      c.mode,
      std::to_string(c.threads),
      std::to_string(c.ops_per_txn),
      CsvWriter::fmt(c.u, 3),
      std::to_string(c.key_range),
      CsvWriter::fmt(c.zipf, 2),
      CsvWriter::fmt(c.scan_frac, 3),
      std::to_string(c.scan_width),
      c.pin,
      ctx.use_min ? "min" : "mean",
      std::to_string(ctx.ops),
      CsvWriter::fmt(t.mean_ms, 3),
      CsvWriter::fmt(t.sd_ms, 3),
      CsvWriter::fmt(t.min_ms, 3),
      CsvWriter::fmt(ops_s, 1),
      CsvWriter::fmt(abort_ratio, 5)};
  for (const std::string& f : CsvWriter::host_fields()) row.push_back(f);
  ctx.csv->row(row);
  if (ctx.json != nullptr) {
    JsonRecord r;
    r.bench = "scenario_matrix";
    r.workload = c.family + "/" + c.impl;
    r.mode = c.mode;
    r.threads = c.threads;
    r.ops_per_txn = c.ops_per_txn;
    r.write_fraction = c.u;
    r.ops_per_sec = ops_s;
    r.abort_ratio = abort_ratio;
    r.extra = c.key_range > 0 ? c.key_range : -1;
    r.pin = c.pin;
    ctx.json->add(r);
  }
}

TimedRuns from_run_result(const RunResult& r) {
  return TimedRuns{r.mean_ms, r.sd_ms, r.min_ms};
}

// ---------------------------------------------------------------------------
// map family — every adapters.hpp config over the shared map harness.
// ---------------------------------------------------------------------------

template <class Adapter>
void map_cell(Ctx& ctx, Adapter& a, const std::string& impl, Cell cell,
              const RunConfig& cfg) {
  bench::prefill_half(a, cfg.key_range);
  const RunResult r = bench::run_map_throughput(a, cfg);
  cell.impl = impl;
  emit(ctx, cell, from_run_result(r), r.abort_ratio());
}

void run_map_family(Ctx& ctx, stm::Mode mode, const Cell& proto,
                    const RunConfig& cfg, const stm::StmOptions& opts,
                    std::size_t ca_slots) {
  Cell cell = proto;
  cell.mode = stm::to_string(mode);
  {
    bench::PureStmAdapter a(mode, cfg.key_range, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::PredicationAdapter a(mode, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::EagerOptAdapter a(mode, ca_slots, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::PessimisticAdapter a(mode, ca_slots, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::LazyMemoPessAdapter a(mode, ca_slots, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::LazySnapshotAdapter a(mode, ca_slots, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::LazyMemoAdapter a(mode, ca_slots, /*combine=*/false, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    bench::LazyMemoAdapter a(mode, ca_slots, /*combine=*/true, opts);
    map_cell(ctx, a, a.name(), cell, cfg);
  }
  {
    Cell lk = cell;
    lk.mode = "";
    bench::GlobalLockAdapter a;
    map_cell(ctx, a, a.name(), lk, cfg);
  }
}

// ---------------------------------------------------------------------------
// ordered family — interval CA vs coarse vs pure-STM treap vs global lock.
// ---------------------------------------------------------------------------

using OrderedLap = core::OptimisticLap<std::size_t, core::StripeHasher>;

template <class ScanOp, class PointOp>
TimedRuns ordered_runs(Ctx& ctx, const Cell& c,
                       const std::vector<int>& pin_plan, ScanOp&& scan,
                       PointOp&& point, stm::Stm* stm) {
  const long iters =
      (ctx.ops + c.threads - 1) / c.threads;  // per-thread ops
  const long window = c.key_range / c.threads;
  return bench::run_ops_timed(
      c.threads, iters, ctx.warmup, ctx.runs, /*seed=*/97, pin_plan,
      [&](int t, Xoshiro256& rng) {
        if (rng.uniform() < c.scan_frac) {
          const long lo = static_cast<long>(
              rng.below(c.key_range - c.scan_width + 1));
          scan(lo, lo + c.scan_width - 1);
        } else {
          // Per-thread update windows (the range-commutativity shape):
          // updates commute across windows, scans roam everywhere.
          const long k =
              t * window + static_cast<long>(rng.below(window > 0 ? window : 1));
          point(k, rng.uniform() < c.u);
        }
      },
      [stm] {
        if (stm != nullptr) stm->stats().reset();
      });
}

void run_ordered_family(Ctx& ctx, const Cell& proto, const stm::StmOptions& opts,
                        const std::vector<int>& pin_plan,
                        std::size_t stripes) {
  for (const char* impl : {"proust-interval", "proust-coarse"}) {
    Cell cell = proto;
    cell.impl = impl;
    cell.mode = "lazy";
    const std::size_t m =
        std::string(impl) == "proust-coarse" ? std::size_t{1} : stripes;
    stm::Stm stm(stm::Mode::Lazy, opts);
    OrderedLap lap(stm, m);
    core::TxnOrderedMap<long, OrderedLap> map(lap, 0, cell.key_range - 1, m);
    for (long k = 0; k < cell.key_range; k += 2) map.unsafe_put(k, 1);
    const TimedRuns t = ordered_runs(
        ctx, cell, pin_plan,
        [&](long lo, long hi) {
          stm.atomically([&](stm::Txn& tx) { (void)map.range_sum(tx, lo, hi); });
        },
        [&](long k, bool write) {
          stm.atomically([&](stm::Txn& tx) {
            if (write) {
              map.put(tx, k, 1);
            } else {
              (void)map.get(tx, k);
            }
          });
        },
        &stm);
    const auto s = stm.stats().snapshot();
    emit(ctx, cell, t,
         s.starts ? static_cast<double>(s.total_aborts()) / s.starts : 0.0);
  }
  {
    Cell cell = proto;
    cell.impl = "pure-stm-tree";
    cell.mode = "lazy";
    stm::Stm stm(stm::Mode::Lazy, opts);
    baselines::PureStmTreeMap<long, long> map(stm, 8192);
    for (long k = 0; k < cell.key_range; k += 2) map.unsafe_put(k, 1);
    const TimedRuns t = ordered_runs(
        ctx, cell, pin_plan,
        [&](long lo, long hi) {
          stm.atomically([&](stm::Txn& tx) { (void)map.range_sum(tx, lo, hi); });
        },
        [&](long k, bool write) {
          stm.atomically([&](stm::Txn& tx) {
            if (write) {
              map.put(tx, k, 1);
            } else {
              (void)map.get(tx, k);
            }
          });
        },
        &stm);
    const auto s = stm.stats().snapshot();
    emit(ctx, cell, t,
         s.starts ? static_cast<double>(s.total_aborts()) / s.starts : 0.0);
  }
  {
    Cell cell = proto;
    cell.impl = "global-lock";
    std::mutex mu;
    std::map<long, long> map;
    for (long k = 0; k < cell.key_range; k += 2) map[k] = 1;
    const TimedRuns t = ordered_runs(
        ctx, cell, pin_plan,
        [&](long lo, long hi) {
          std::lock_guard<std::mutex> g(mu);
          long sum = 0;
          for (auto it = map.lower_bound(lo); it != map.end() && it->first <= hi;
               ++it) {
            sum += it->second;
          }
          (void)sum;
        },
        [&](long k, bool write) {
          std::lock_guard<std::mutex> g(mu);
          if (write) {
            map[k] = 1;
          } else {
            (void)map.count(k);
          }
        },
        nullptr);
    emit(ctx, cell, t, 0.0);
  }
}

// ---------------------------------------------------------------------------
// pqueue family — the §6 configurations. u is the mutation fraction, split
// evenly between insert and remove_min; the remainder is 80% contains /
// 20% min.
// ---------------------------------------------------------------------------

template <class PQ>
TimedRuns pqueue_runs(Ctx& ctx, const Cell& c, const std::vector<int>& pin_plan,
                      stm::Stm& stm, PQ& pq) {
  const long iters = (ctx.ops + c.threads - 1) / c.threads;
  return bench::run_ops_timed(
      c.threads, iters, ctx.warmup, ctx.runs, /*seed=*/53, pin_plan,
      [&](int, Xoshiro256& rng) {
        const double r = rng.uniform();
        const long v = static_cast<long>(rng.below(100000));
        if (r < c.u / 2) {
          stm.atomically([&](stm::Txn& tx) { pq.insert(tx, v); });
        } else if (r < c.u) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.remove_min(tx); });
        } else if (r < c.u + 0.2 * (1 - c.u)) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.min(tx); });
        } else {
          stm.atomically([&](stm::Txn& tx) { (void)pq.contains(tx, v); });
        }
      },
      [&stm] { stm.stats().reset(); });
}

template <class PQ>
void pqueue_cell(Ctx& ctx, Cell cell, const char* impl, const char* mode,
                 const std::vector<int>& pin_plan, stm::Stm& stm, PQ& pq,
                 long prefill) {
  for (long i = 0; i < prefill; ++i) {
    pq.unsafe_insert(static_cast<long>(i * 37 % 100000));
  }
  cell.impl = impl;
  cell.mode = mode;
  const TimedRuns t = pqueue_runs(ctx, cell, pin_plan, stm, pq);
  const auto s = stm.stats().snapshot();
  emit(ctx, cell, t,
       s.starts ? static_cast<double>(s.total_aborts()) / s.starts : 0.0);
}

void run_pqueue_family(Ctx& ctx, const Cell& proto, const stm::StmOptions& opts,
                       const std::vector<int>& pin_plan, long prefill) {
  {
    stm::Stm stm(stm::Mode::EagerAll, opts);
    core::OptimisticLap<PQueueState, PQueueStateHasher> lap(stm, 2);
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, proto, "eager-opt", "eagerall", pin_plan, stm, pq,
                prefill);
  }
  {
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::PessimisticLap<PQueueState, PQueueStateHasher> lap(
        stm, 2, core::pqueue_lock_kind, std::chrono::milliseconds(2));
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, proto, "pess-group", "lazy", pin_plan, stm, pq, prefill);
  }
  {
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::PessimisticLap<PQueueState, PQueueStateHasher> lap(
        stm, 1, [](std::size_t) { return sync::LockKind::kReaderWriter; },
        std::chrono::milliseconds(2));
    core::TxnPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, proto, "boosting-1rw", "lazy", pin_plan, stm, pq,
                prefill);
  }
  {
    stm::Stm stm(stm::Mode::Lazy, opts);
    core::OptimisticLap<PQueueState, PQueueStateHasher> lap(stm, 2);
    core::LazyPriorityQueue<long, decltype(lap)> pq(lap);
    pqueue_cell(ctx, proto, "lazy-snap", "lazy", pin_plan, stm, pq, prefill);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");

  Ctx ctx;
  ctx.ops = cli.get_long("ops", smoke ? 2000 : 100000);
  ctx.warmup = static_cast<int>(cli.get_long("warmup", smoke ? 0 : 2));
  ctx.runs = static_cast<int>(cli.get_long("runs", smoke ? 1 : 5));
  ctx.use_min = cli.get("stat", smoke ? "mean" : "min") == "min";

  const auto families = cli.get_strings(
      "families", std::vector<std::string>{"map", "ordered", "pqueue"});
  const auto us = cli.get_doubles(
      "u", smoke ? std::vector<double>{0, 0.5, 1}
                 : std::vector<double>{0, 0.25, 0.5, 0.75, 1});
  const auto key_ranges = cli.get_longs(
      "key-range", smoke ? std::vector<long>{128} : std::vector<long>{256, 4096});
  const auto zipfs = cli.get_doubles(
      "zipf", smoke ? std::vector<double>{0, 0.9} : std::vector<double>{0, 0.9});
  const auto txn_lens = cli.get_longs(
      "o", smoke ? std::vector<long>{1, 4} : std::vector<long>{1, 4, 64});
  const auto scan_fracs = cli.get_doubles(
      "scan-frac", smoke ? std::vector<double>{0.2}
                         : std::vector<double>{0.1, 0.3});
  const auto scan_widths = cli.get_longs(
      "scan-width", smoke ? std::vector<long>{32} : std::vector<long>{64, 512});
  const auto thread_counts = cli.get_longs(
      "threads", smoke ? std::vector<long>{1, 2} : std::vector<long>{1, 2, 4, 8});
  using topo::PinPolicy;
  const auto pins = cli.get_pin_policies(
      "pin", smoke ? std::vector<PinPolicy>{PinPolicy::None, PinPolicy::Compact}
                   : std::vector<PinPolicy>{PinPolicy::None, PinPolicy::Compact,
                                            PinPolicy::Scatter});
  const stm::Mode mode = cli.get_mode("mode", stm::Mode::Lazy);
  const std::size_t ca_slots =
      static_cast<std::size_t>(cli.get_long("ca-slots", 1024));
  const std::size_t stripes =
      static_cast<std::size_t>(cli.get_long("stripes", 64));

  const topo::Topology& host = topo::Topology::system();
  std::printf("# scenario matrix: host cpus=%u nodes=%u smt=%d | ops=%ld "
              "runs=%d stat=%s%s\n",
              host.cpu_count(), host.node_count, host.smt ? 1 : 0, ctx.ops,
              ctx.runs, ctx.use_min ? "min" : "mean", smoke ? " (smoke)" : "");

  Table table({"family", "impl", "threads", "u", "pin", "ms", "abort%"});
  CsvWriter csv(csv_columns());
  const std::string json_path = cli.get("json", "");
  JsonWriter json_writer(cli.get("label", "scenario-matrix"));
  ctx.table = &table;
  ctx.csv = &csv;
  ctx.json = json_path.empty() ? nullptr : &json_writer;

  const stm::StmOptions opts{};
  for (const PinPolicy policy : pins) {
    const std::string pin_name = topo::to_string(policy);
    const std::vector<int> pin_plan = host.pin_plan(policy);

    for (long t : thread_counts) {
      if (std::find(families.begin(), families.end(), "map") !=
          families.end()) {
        for (double u : us) {
          for (long keys : key_ranges) {
            for (double z : zipfs) {
              for (long o : txn_lens) {
                Cell cell;
                cell.family = "map";
                cell.threads = static_cast<int>(t);
                cell.ops_per_txn = static_cast<int>(o);
                cell.u = u;
                cell.key_range = keys;
                cell.zipf = z;
                cell.pin = pin_name;
                RunConfig cfg;
                cfg.threads = cell.threads;
                cfg.ops_per_txn = cell.ops_per_txn;
                cfg.write_fraction = u;
                cfg.key_range = keys;
                cfg.total_ops = ctx.ops;
                cfg.warmup_runs = ctx.warmup;
                cfg.timed_runs = ctx.runs;
                cfg.zipf_theta = z;
                cfg.pin_plan = pin_plan;
                run_map_family(ctx, mode, cell, cfg, opts, ca_slots);
              }
            }
          }
        }
      }
      if (std::find(families.begin(), families.end(), "ordered") !=
          families.end()) {
        for (double u : us) {
          for (long keys : key_ranges) {
            for (double sf : scan_fracs) {
              for (long w : scan_widths) {
                if (w >= keys) continue;  // scan must fit the key space
                Cell cell;
                cell.family = "ordered";
                cell.threads = static_cast<int>(t);
                cell.u = u;
                cell.key_range = keys;
                cell.scan_frac = sf;
                cell.scan_width = w;
                cell.pin = pin_name;
                run_ordered_family(ctx, cell, opts, pin_plan, stripes);
              }
            }
          }
        }
      }
      if (std::find(families.begin(), families.end(), "pqueue") !=
          families.end()) {
        for (double u : us) {
          Cell cell;
          cell.family = "pqueue";
          cell.threads = static_cast<int>(t);
          cell.u = u;
          cell.pin = pin_name;
          run_pqueue_family(ctx, cell, opts, pin_plan,
                            cli.get_long("prefill", smoke ? 1000 : 10000));
        }
      }
    }
  }

  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    if (!csv.write(csv_path)) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("# wrote %s (%zu rows)\n", csv_path.c_str(), csv.row_count());
  }
  if (ctx.json != nullptr) {
    if (!json_writer.write(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
