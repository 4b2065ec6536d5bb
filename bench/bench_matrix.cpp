// bench_matrix: the one benchmark driver. `--preset=<name>` picks the grid
// of one table of the paper's evaluation or of an ablation (EXPERIMENTS.md,
// DESIGN.md §3); every axis flag overrides that preset's default, and
// `--smoke` shrinks any preset to seconds. Every preset writes the same row
// (bench_util/row.hpp) to stdout as CSV; comments go to stderr, and
// `--json=<path>` also writes the rows as JSON records.
//
// Workload families (the `family` column):
//   map       — the §7 hash-map comparison (bench_util/adapters.hpp);
//   ordered   — TxnOrderedMap with the interval CA vs the same map at M=1
//               vs a pure-STM treap vs a global-lock std::map: per-thread
//               point updates plus range scans (the §1 range claim);
//   pqueue    — the §6 priority-queue configurations;
//   counter   — §3's counter CA vs a pure-STM counter;
//   lock-step — forced-overlap trials: all threads meet inside their
//               transactions before committing, so on disjoint keys every
//               abort is a false conflict (§1);
//   model     — the striped map CA's false conflicts on the bounded model;
//   wal       — group commit, cold recovery, and the idle-durability A/B.
//
// Axis flags take comma-separated lists; `--ops` is the total work of one
// run, split across the threads (the paper's fixed-work method).
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/row.hpp"
#include "bench_util/topology.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/txn_counter.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"
#include "stm/checkpoint.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"
#include "sync/reentrant_rw_lock.hpp"
#include "verify/checker.hpp"

using namespace proust;
using namespace proust::bench;
using stm::Mode;
using topo::PinPolicy;

namespace {

const std::vector<std::string> kSwitches = {"smoke"};
const std::vector<std::string> kValueFlags = {
    "preset", "ops",       "warmup",   "runs",     "stat",   "threads",
    "o",      "u",         "key-range", "zipf",    "scan-frac",
    "scan-width", "ca-slots", "pin",    "mode",     "fallback",
    "prefill",  "decr",     "fsync-n",  "mult",     "json",   "label"};

/// What the running preset reads: the command line and the row sink.
struct Ctx {
  const Cli& cli;
  RowSink& out;
  std::string preset;
  bool smoke = false;

  /// An axis: the flag's values if given, else the preset's default, cut to
  /// its first two values under --smoke.
  template <class T>
  std::vector<T> shrink(std::vector<T> def) const {
    if (smoke && def.size() > 2) def.resize(2);
    return def;
  }
  std::vector<long> longs(const char* flag, std::vector<long> def,
                          long min = 1) const {
    return cli.get_longs(flag, shrink(std::move(def)), min);
  }
  std::vector<double> doubles(const char* flag, std::vector<double> def,
                              double hi = 1) const {
    return cli.get_doubles(flag, shrink(std::move(def)), 0, hi);
  }
  std::vector<Mode> modes(std::vector<Mode> def) const {
    return cli.get_enums("mode", shrink(std::move(def)), Cli::kModes);
  }
  std::vector<PinPolicy> pins(std::vector<PinPolicy> def = {
                                  PinPolicy::None}) const {
    return cli.get_enums("pin", shrink(std::move(def)), Cli::kPinPolicies);
  }
  long scalar(const char* flag, long def, long min = 0) const {
    return cli.get_long(flag, def, min);
  }

  /// Run sizes: --ops, --warmup, --runs. --smoke divides the work by 20 and
  /// times one run with no warm-up.
  RunConfig config(long ops, int warmup, int runs) const {
    RunConfig c;
    c.total_ops = cli.get_long("ops", smoke ? std::max(ops / 20, 1L) : ops, 1);
    c.warmup_runs = static_cast<int>(cli.get_long("warmup", smoke ? 0 : warmup));
    c.timed_runs = static_cast<int>(cli.get_long("runs", smoke ? 1 : runs, 1));
    return c;
  }
  bool use_min(bool def = false) const {
    return cli.get_enum("stat", def, Cli::kStats);
  }

  Row row(const char* family, const std::string& impl,
          const stm::Stm* stm = nullptr) const {
    Row r;
    r.preset = preset;
    r.family = family;
    r.impl = impl;
    if (stm != nullptr) r.mode = stm::to_string(stm->mode());
    return r;
  }
};

/// Cartesian expansion: every cell becomes one copy per value.
template <class Cell, class T, class Set>
void expand(std::vector<Cell>& cells, const std::vector<T>& values, Set set) {
  std::vector<Cell> out;
  for (const Cell& c : cells) {
    for (const T& v : values) {
      out.push_back(c);
      set(out.back(), v);
    }
  }
  cells = std::move(out);
}

/// One measured configuration of any family.
struct Cell {
  std::string impl;
  std::string variant;
  Mode mode = Mode::Lazy;
  PinPolicy pin = PinPolicy::None;
  long ca = 0;  // CA slots / stripes; 0 = the impl has none
  double scan_frac = 0;
  long scan_width = 0;
  RunConfig cfg;
};

void set_identity(Row& r, const Cell& c) {
  r.variant = c.variant;
  r.pin = topo::to_string(c.pin);
  r.threads = c.cfg.threads;
  if (c.ca > 0) r.ca_slots = c.ca;
}

std::vector<int> plan_of(PinPolicy p) {
  return topo::Topology::system().pin_plan(p);
}

// ---------------------------------------------------------------------------
// map family
// ---------------------------------------------------------------------------

bool uses_ca(const std::string& impl) { return impl.rfind("proust-", 0) == 0; }

/// Build the adapter named `impl` and hand it to `fn`.
template <class Fn>
void with_map(const std::string& impl, Mode mode, std::size_t ca,
              const stm::StmOptions& opts, long key_range, Fn&& fn) {
  const bool combine = impl.back() == 'c' && impl[impl.size() - 2] == '+';
  if (impl == "pure-stm") {
    PureStmAdapter a(mode, key_range, opts);
    fn(a);
  } else if (impl == "pure-stm-tree") {
    PureStmTreeAdapter a(mode, opts);
    fn(a);
  } else if (impl == "predication") {
    PredicationAdapter a(mode, opts);
    fn(a);
  } else if (impl == "proust-eager") {
    EagerOptAdapter a(mode, ca, opts);
    fn(a);
  } else if (impl == "proust-pess") {
    PessimisticAdapter a(mode, ca, opts);
    fn(a);
  } else if (impl == "proust-pess-lazy") {
    LazyMemoPessAdapter a(mode, ca, opts);
    fn(a);
  } else if (impl.rfind("proust-lazy-snap", 0) == 0) {
    LazySnapshotAdapter a(mode, ca, combine, opts);
    fn(a);
  } else if (impl.rfind("proust-lazy-memo", 0) == 0) {
    LazyMemoAdapter a(mode, ca, combine, opts);
    fn(a);
  } else if (impl == "global-lock") {
    GlobalLockAdapter a;
    fn(a);
  } else {
    Cli::fail("unknown map impl " + impl);
  }
}

struct MapGrid {
  std::vector<std::string> impls;
  std::vector<Mode> modes;
  std::vector<double> us, zipfs;
  std::vector<long> os, key_ranges, threads, ca_slots;
  std::vector<PinPolicy> pins;
  RunConfig cfg;
  bool use_min = false;
  long prefill = -1;  // keys before the run; < 0 = half the key range
  stm::StmOptions opts;
  std::string variant;
  bool pess_only_o1 = false;  // §7: pessimistic results only at o = 1

  long prefill_for(long key_range) const {
    return prefill < 0 ? key_range / 2 : prefill;
  }
};

/// The map axes at their generic defaults; presets override what they sweep.
MapGrid map_grid(const Ctx& c, long ops, int warmup, int runs) {
  MapGrid g;
  g.modes = c.modes({Mode::Lazy});
  g.us = c.doubles("u", {0.5});
  g.zipfs = c.doubles("zipf", {0}, 10);
  g.os = c.longs("o", {1});
  g.key_ranges = c.longs("key-range", {1024});
  g.threads = c.longs("threads", {1});
  g.ca_slots = c.longs("ca-slots", {1024});
  g.pins = c.pins();
  g.cfg = c.config(ops, warmup, runs);
  g.use_min = c.use_min();
  g.prefill = c.scalar("prefill", -1, 1);
  return g;
}

std::vector<Cell> map_cells(const MapGrid& g) {
  std::vector<Cell> cells{Cell{}};
  cells.front().cfg = g.cfg;
  cells.front().variant = g.variant;
  expand(cells, g.pins, [](Cell& c, PinPolicy p) { c.pin = p; });
  expand(cells, g.modes, [](Cell& c, Mode m) { c.mode = m; });
  expand(cells, g.us, [](Cell& c, double u) { c.cfg.write_fraction = u; });
  expand(cells, g.os, [](Cell& c, long o) { c.cfg.ops_per_txn = int(o); });
  expand(cells, g.key_ranges, [](Cell& c, long k) { c.cfg.key_range = k; });
  expand(cells, g.zipfs, [](Cell& c, double z) { c.cfg.zipf_theta = z; });
  expand(cells, g.threads, [](Cell& c, long t) { c.cfg.threads = int(t); });
  std::vector<Cell> out;
  for (const Cell& c : cells) {
    for (const std::string& impl : g.impls) {
      if (g.pess_only_o1 && impl == "proust-pess" && c.cfg.ops_per_txn != 1) {
        continue;
      }
      for (long m : uses_ca(impl) ? g.ca_slots : std::vector<long>{0}) {
        out.push_back(c);
        out.back().impl = impl;
        out.back().ca = m;
      }
    }
  }
  return out;
}

template <class Adapter>
Row map_row(const Ctx& c, Adapter& a, const Cell& cell) {
  Row r = c.row("map", a.name(), a.stm());
  set_identity(r, cell);
  r.ops_per_txn = cell.cfg.ops_per_txn;
  r.u = cell.cfg.write_fraction;
  r.key_range = cell.cfg.key_range;
  r.zipf = cell.cfg.zipf_theta;
  return r;
}

void run_map_grid(Ctx& c, const MapGrid& g) {
  for (Cell cell : map_cells(g)) {
    cell.cfg.pin_plan = plan_of(cell.pin);
    with_map(cell.impl, cell.mode, cell.ca, g.opts, cell.cfg.key_range,
             [&](auto& a) {
               prefill_keys(a, cell.cfg.key_range,
                            g.prefill_for(cell.cfg.key_range));
               const RunResult r = run_map_throughput(a, cell.cfg);
               Row row = map_row(c, a, cell);
               row.measure(r, cell.cfg.total_ops, g.use_min);
               c.out.add(row);
             });
  }
}

/// Paired A/B on the map workload: one adapter per StmOptions side, runs
/// interleaved (run_map_interleaved).
template <class Adapter, class Make>
void run_map_ab(Ctx& c, const MapGrid& g,
                const std::vector<std::string>& side_names, Make&& make) {
  for (Cell cell : map_cells(g)) {
    cell.cfg.pin_plan = plan_of(cell.pin);
    std::vector<std::unique_ptr<Adapter>> sides;
    std::vector<Adapter*> ptrs;
    for (std::size_t s = 0; s < side_names.size(); ++s) {
      sides.push_back(make(s, cell));
      ptrs.push_back(sides.back().get());
      prefill_keys(*ptrs.back(), cell.cfg.key_range,
                   g.prefill_for(cell.cfg.key_range));
    }
    const std::vector<RunResult> rs = run_map_interleaved(ptrs, cell.cfg);
    for (std::size_t s = 0; s < sides.size(); ++s) {
      cell.variant = side_names[s];
      Row row = map_row(c, *sides[s], cell);
      row.measure(rs[s], cell.cfg.total_ops, g.use_min);
      c.out.add(row);
    }
  }
}

// ---------------------------------------------------------------------------
// ordered family
// ---------------------------------------------------------------------------

using OrderedLap = core::OptimisticLap<std::size_t, core::StripeHasher>;

/// Each op is a range scan (scan_frac of them) or a point op in the worker's
/// own key window — updates commute across windows, scans roam everywhere.
template <class ScanOp, class PointOp>
RunResult ordered_runs(const Cell& c, stm::Stm* stm, ScanOp&& scan,
                       PointOp&& point) {
  const long keys = c.cfg.key_range;
  const long window = std::max(keys / c.cfg.threads, 1L);
  return run_ops_timed(
      c.cfg,
      [&](int t, Xoshiro256& rng) {
        if (rng.uniform() < c.scan_frac) {
          const long lo =
              static_cast<long>(rng.below(keys - c.scan_width + 1));
          scan(lo, lo + c.scan_width - 1);
        } else {
          point(t * window + static_cast<long>(rng.below(window)),
                rng.uniform() < c.cfg.write_fraction);
        }
      },
      stm);
}

template <class M>
RunResult ordered_stm_runs(const Cell& c, stm::Stm& stm, M& map) {
  for (long k = 0; k < c.cfg.key_range; k += 2) map.unsafe_put(k, 1);
  return ordered_runs(
      c, &stm,
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
      });
}

void run_ordered_grid(Ctx& c, std::vector<Cell> cells, bool use_min) {
  for (Cell& cell : cells) {
    cell.cfg.pin_plan = plan_of(cell.pin);
    const Mode mode = Mode::Lazy;
    std::optional<stm::Stm> stm;
    RunResult r;
    if (cell.impl == "proust-interval" || cell.impl == "proust-coarse") {
      if (cell.impl == "proust-coarse") cell.ca = 1;
      stm.emplace(mode);
      OrderedLap lap(*stm, static_cast<std::size_t>(cell.ca));
      core::TxnOrderedMap<long, OrderedLap> map(
          lap, 0, cell.cfg.key_range - 1, static_cast<std::size_t>(cell.ca));
      r = ordered_stm_runs(cell, *stm, map);
    } else if (cell.impl == "pure-stm-tree") {
      stm.emplace(mode);
      baselines::PureStmTreeMap<long, long> map(*stm, 8192);
      r = ordered_stm_runs(cell, *stm, map);
    } else {
      std::mutex mu;
      std::map<long, long> map;
      for (long k = 0; k < cell.cfg.key_range; k += 2) map[k] = 1;
      r = ordered_runs(
          cell, nullptr,
          [&](long lo, long hi) {
            std::lock_guard<std::mutex> g(mu);
            long sum = 0;
            for (auto it = map.lower_bound(lo);
                 it != map.end() && it->first <= hi; ++it) {
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
          });
    }
    Row row = c.row("ordered", cell.impl, stm ? &*stm : nullptr);
    set_identity(row, cell);
    row.u = cell.cfg.write_fraction;
    row.key_range = cell.cfg.key_range;
    row.scan_frac = cell.scan_frac;
    row.scan_width = cell.scan_width;
    row.measure(r, cell.cfg.total_ops, use_min);
    c.out.add(row);
  }
}

/// The ordered axes; `def_*` are the preset's defaults.
std::vector<Cell> ordered_cells(const Ctx& c, const RunConfig& cfg,
                                std::vector<double> def_u,
                                std::vector<long> def_keys,
                                std::vector<double> def_scan_frac,
                                std::vector<long> def_scan_width,
                                std::vector<long> def_threads,
                                std::vector<PinPolicy> def_pins) {
  std::vector<Cell> cells{Cell{}};
  cells.front().cfg = cfg;
  expand(cells, c.pins(std::move(def_pins)),
         [](Cell& x, PinPolicy p) { x.pin = p; });
  expand(cells, c.longs("threads", std::move(def_threads)),
         [](Cell& x, long t) { x.cfg.threads = int(t); });
  expand(cells, c.doubles("u", std::move(def_u)),
         [](Cell& x, double u) { x.cfg.write_fraction = u; });
  expand(cells, c.longs("key-range", std::move(def_keys)),
         [](Cell& x, long k) { x.cfg.key_range = k; });
  expand(cells, c.doubles("scan-frac", std::move(def_scan_frac)),
         [](Cell& x, double f) { x.scan_frac = f; });
  expand(cells, c.longs("scan-width", std::move(def_scan_width)),
         [](Cell& x, long w) { x.scan_width = w; });
  std::vector<Cell> out;
  for (const Cell& x : cells) {
    if (x.scan_width > x.cfg.key_range) continue;  // scans fit the key space
    for (const char* impl : {"proust-interval", "proust-coarse",
                             "pure-stm-tree", "global-lock"}) {
      const bool striped = std::string(impl) == "proust-interval";
      for (long m : striped ? c.longs("ca-slots", {64}) : std::vector<long>{0}) {
        out.push_back(x);
        out.back().impl = impl;
        out.back().ca = m;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// pqueue family. A mix gives the insert / remove_min / min fractions; the
// rest are contains.
// ---------------------------------------------------------------------------

struct Mix {
  std::string name;
  double insert, remove_min, min;
};

template <class PQ>
void pqueue_cell(Ctx& c, const Cell& cell, const Mix& mix, stm::Stm& stm,
                 PQ& pq, long prefill, bool use_min) {
  for (long i = 0; i < prefill; ++i) {
    pq.unsafe_insert(static_cast<long>(i * 37 % 100000));
  }
  const RunResult r = run_ops_timed(
      cell.cfg,
      [&](int, Xoshiro256& rng) {
        const double x = rng.uniform();
        const long v = static_cast<long>(rng.below(100000));
        if (x < mix.insert) {
          stm.atomically([&](stm::Txn& tx) { pq.insert(tx, v); });
        } else if (x < mix.insert + mix.remove_min) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.remove_min(tx); });
        } else if (x < mix.insert + mix.remove_min + mix.min) {
          stm.atomically([&](stm::Txn& tx) { (void)pq.min(tx); });
        } else {
          stm.atomically([&](stm::Txn& tx) { (void)pq.contains(tx, v); });
        }
      },
      &stm);
  Row row = c.row("pqueue", cell.impl, &stm);
  set_identity(row, cell);
  row.variant = mix.name;
  row.u = mix.insert + mix.remove_min;
  row.measure(r, cell.cfg.total_ops, use_min);
  c.out.add(row);
}

void run_pqueue_grid(Ctx& c, const std::vector<Mix>& mixes,
                     std::vector<Cell> cells, long prefill, bool use_min) {
  using core::PQueueState;
  using core::PQueueStateHasher;
  using OptLap = core::OptimisticLap<PQueueState, PQueueStateHasher>;
  using PessLap = core::PessimisticLap<PQueueState, PQueueStateHasher>;
  const auto timeout = std::chrono::milliseconds(2);
  for (const Mix& mix : mixes) {
    for (Cell& cell : cells) {
      cell.cfg.pin_plan = plan_of(cell.pin);
      {  // Eager Proust, optimistic CA on the two abstract-state elements.
        stm::Stm stm(Mode::EagerAll);
        OptLap lap(stm, 2);
        core::TxnPriorityQueue<long, OptLap> pq(lap);
        cell.impl = "eager-opt";
        pqueue_cell(c, cell, mix, stm, pq, prefill, use_min);
      }
      {  // Pessimistic LAP with the per-element disciplines (MultiSet = group
         // lock: commuting inserts don't serialize).
        stm::Stm stm(Mode::Lazy);
        PessLap lap(stm, 2, core::pqueue_lock_kind, timeout);
        core::TxnPriorityQueue<long, PessLap> pq(lap);
        cell.impl = "pess-group";
        pqueue_cell(c, cell, mix, stm, pq, prefill, use_min);
      }
      {  // Boosting's published approximation: ONE reader-writer stripe for
         // the whole queue (every insert/removeMin takes the write lock).
        stm::Stm stm(Mode::Lazy);
        PessLap lap(
            stm, 1, [](std::size_t) { return sync::LockKind::kReaderWriter; },
            timeout);
        core::TxnPriorityQueue<long, PessLap> pq(lap);
        cell.impl = "boosting-1rw";
        pqueue_cell(c, cell, mix, stm, pq, prefill, use_min);
      }
      {  // Lazy Proust over the COW heap (snapshot shadow copies).
        stm::Stm stm(Mode::Lazy);
        OptLap lap(stm, 2);
        core::LazyPriorityQueue<long, OptLap> pq(lap);
        cell.impl = "lazy-snap";
        pqueue_cell(c, cell, mix, stm, pq, prefill, use_min);
      }
    }
  }
}

std::vector<Cell> thread_pin_cells(const Ctx& c, const RunConfig& cfg,
                                   std::vector<long> def_threads,
                                   std::vector<PinPolicy> def_pins = {
                                       PinPolicy::None}) {
  std::vector<Cell> cells{Cell{}};
  cells.front().cfg = cfg;
  expand(cells, c.pins(std::move(def_pins)),
         [](Cell& x, PinPolicy p) { x.pin = p; });
  expand(cells, c.longs("threads", std::move(def_threads)),
         [](Cell& x, long t) { x.cfg.threads = int(t); });
  return cells;
}

// ---------------------------------------------------------------------------
// counter family: the non-negative counter, incr or decr per transaction.
// Each run starts from the regime's initial value.
// ---------------------------------------------------------------------------

void run_counter_grid(Ctx& c, std::vector<Cell> cells, double decr,
                      bool use_min) {
  using Lap = core::OptimisticLap<core::CounterState, core::CounterStateHasher>;
  for (Cell& cell : cells) {
    cell.cfg.pin_plan = plan_of(cell.pin);
    // high: far above the CA threshold, so the Proust counter touches no STM
    // location (§3 case 1). low: starts at 1, where decrs write ℓ0 (case 3).
    for (const char* regime : {"high", "low"}) {
      const long initial = regime[0] == 'h' ? 100000 : 1;
      cell.variant = regime;
      {
        stm::Stm stm(Mode::EagerAll);
        Lap lap(stm, 1);
        std::optional<core::TxnCounter<Lap>> counter;
        const RunResult r = run_ops_timed(
            cell.cfg,
            [&](int, Xoshiro256& rng) {
              if (rng.uniform() < decr) {
                stm.atomically([&](stm::Txn& tx) { (void)counter->decr(tx); });
              } else {
                stm.atomically([&](stm::Txn& tx) { counter->incr(tx); });
              }
            },
            &stm, [&] { counter.emplace(lap, initial); });
        Row row = c.row("counter", "proust-counter", &stm);
        set_identity(row, cell);
        row.measure(r, cell.cfg.total_ops, use_min);
        c.out.add(row);
      }
      {
        stm::Stm stm(Mode::EagerAll);
        stm::Var<long> value(initial);
        const RunResult r = run_ops_timed(
            cell.cfg,
            [&](int, Xoshiro256& rng) {
              if (rng.uniform() < decr) {
                stm.atomically([&](stm::Txn& tx) {
                  const long v = tx.read(value);
                  if (v > 0) tx.write(value, v - 1);
                });
              } else {
                stm.atomically(
                    [&](stm::Txn& tx) { tx.write(value, tx.read(value) + 1); });
              }
            },
            &stm, [&] { value.unsafe_store(initial); });
        Row row = c.row("counter", "pure-stm-counter", &stm);
        set_identity(row, cell);
        row.measure(r, cell.cfg.total_ops, use_min);
        c.out.add(row);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-step family. Every trial, each of `threads` threads runs one
// transaction of `o` ops on its keys, starting at t * stride (stride = o:
// disjoint; 0: identical). On its first attempt a thread announces it is
// ready and waits (bounded) for the others before committing, so all
// transactions overlap. The bound keeps the handshake abort-tolerant: if a
// peer aborted before announcing, the thread proceeds after the deadline,
// and retries skip the handshake (the overlap already happened). The
// threads live for the whole cell; a barrier starts each trial.
// ---------------------------------------------------------------------------

template <class Adapter>
stm::StatsSnapshot lock_step(Adapter& a, int threads, long trials, int o,
                             long stride) {
  a.stm()->stats().reset();
  // Announcements over all trials: every thread announces once per trial,
  // and the barrier holds trial k+1 until all of trial k has committed, so
  // trial k is fully announced at (k + 1) * threads.
  std::atomic<long> ready{0};
  std::barrier trial_start(threads);
  std::vector<std::thread> peers;
  for (int t = 0; t < threads; ++t) {
    peers.emplace_back([&, t] {
      for (long trial = 0; trial < trials; ++trial) {
        trial_start.arrive_and_wait();
        const long all_ready = (trial + 1) * threads;
        bool first_attempt = true;
        a.txn([&](auto& view) {
          for (int i = 0; i < o; ++i) {
            // Alternate insert/remove so every trial flips presence (size
            // changes every committed op — the representational stressor).
            if (trial % 2 == 0) {
              view.put(t * stride + i, trial);
            } else {
              view.remove(t * stride + i);
            }
          }
          if (first_attempt) {
            first_attempt = false;
            ready.fetch_add(1, std::memory_order_acq_rel);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
            while (ready.load(std::memory_order_acquire) < all_ready &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
        });
      }
    });
  }
  for (std::thread& p : peers) p.join();
  return a.stm()->stats().snapshot();
}

void run_lock_step_grid(Ctx& c, const MapGrid& g) {
  for (const Cell& cell : map_cells(g)) {
    const int o = cell.cfg.ops_per_txn;
    const long trials =
        std::max(cell.cfg.total_ops / (long{cell.cfg.threads} * o), 1L);
    with_map(cell.impl, cell.mode, cell.ca, g.opts, cell.cfg.key_range,
             [&](auto& a) {
               // Structure away from the trial keys, so tree rotations happen
               // away from the leaves.
               for (long k = 100; k < 400; ++k) a.prefill(k, k);
               for (const long stride : {long{o}, 0L}) {
                 const stm::StatsSnapshot s =
                     lock_step(a, cell.cfg.threads, trials, o, stride);
                 Cell x = cell;
                 x.variant = stride == 0 ? "identical" : "disjoint";
                 Row row = map_row(c, a, x);
                 row.family = "lock-step";
                 row.pin.clear();  // trial threads are never pinned
                 row.u.reset();
                 row.key_range.reset();
                 row.zipf.reset();
                 row.total_ops = trials * cell.cfg.threads * o;
                 // Counts per trial: the lock-step unit of work.
                 row.commits = static_cast<double>(s.commits) / trials;
                 row.aborts = static_cast<double>(s.total_aborts()) / trials;
                 row.abort_ratio =
                     s.starts ? static_cast<double>(s.total_aborts()) / s.starts
                              : 0.0;
                 c.out.add(row);
               }
             });
  }
}

// ---------------------------------------------------------------------------
// wal family
// ---------------------------------------------------------------------------

/// A segment directory under the working directory, removed on exit.
struct Scratch {
  std::string path;
  explicit Scratch(const std::string& tag)
      : path("bench_matrix_wal_" + tag + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    std::filesystem::create_directory(path, ec);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

/// Group commit: each transaction writes its thread's var and, with a Wal
/// attached, logs a 64-byte redo record. `off` runs the same workload with
/// no Wal; strict acks report their mean wait (wal_wait_ns).
void wal_commit_cell(Ctx& c, Cell cell, stm::Wal* wal, bool use_min) {
  cell.cfg.pin_plan = plan_of(cell.pin);
  stm::StmOptions opts;
  opts.durability = wal;
  stm::Stm s(Mode::Lazy, opts);
  std::vector<stm::Var<long>> vars(static_cast<std::size_t>(cell.cfg.threads));
  const RunResult r = run_ops_timed(
      cell.cfg,
      [&](int w, Xoshiro256& rng) {
        const long v = static_cast<long>(rng());
        s.atomically([&](stm::Txn& tx) {
          vars[static_cast<std::size_t>(w)].write(tx, v);
          if (wal != nullptr) {
            std::uint8_t payload[64] = {};
            std::memcpy(payload, &v, sizeof v);
            tx.wal_log(/*stream=*/1, payload, sizeof payload);
          }
        });
      },
      &s);
  if (wal != nullptr) wal->flush();
  Row row = c.row("wal", "group-commit", &s);
  set_identity(row, cell);
  row.measure(r, cell.cfg.total_ops, use_min);
  const stm::StatsSnapshot& st = r.stats;
  row.ack_us = st.wal_strict_waits > 0
                   ? static_cast<double>(st.wal_wait_ns) /
                         static_cast<double>(st.wal_strict_waits) / 1000.0
                   : 0.0;
  c.out.add(row);
}

/// Cold recovery time vs history length, checkpointer off vs periodic cuts.
/// Live state is fixed (32 registered vars); history is `mult × ops`
/// updates over them. With a cut every `ops` records the replayed tail stays
/// bounded by `ops` however long the history grows.
void wal_recovery_cell(Ctx& c, const std::string& dir, bool ckpt_on,
                       long base, long mult, int runs) {
  constexpr int kVars = 32;
  const long history = base * mult;
  {
    std::vector<stm::Var<long>> vars(kVars);
    stm::WalOptions wopts;
    wopts.dir = dir;
    wopts.segment_bytes = 16 * 1024;  // rotations every few hundred records
    wopts.fsync_every_n = 64;
    stm::Wal wal(wopts);
    for (int i = 0; i < kVars; ++i) {
      wal.register_var(static_cast<std::uint64_t>(i + 1),
                       vars[static_cast<std::size_t>(i)]);
    }
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(Mode::Lazy, opts);
    stm::CheckpointOptions copts;  // both triggers 0: manual cuts only,
    stm::Checkpointer cp(wal, copts);  // so the tail is deterministic
    for (long j = 1; j <= history; ++j) {
      s.atomically([&](stm::Txn& tx) {
        vars[static_cast<std::size_t>(j % kVars)].write(tx, j);
      });
      // Periodic cuts, but never right at the end: recovery always has a
      // tail to replay atop the newest checkpoint. The flush first drains
      // the committer so the covered history sits in *sealed* segments,
      // which is what retirement can unlink.
      if (ckpt_on && j % base == 0 && j != history) {
        wal.flush();
        (void)cp.checkpoint_now();
      }
    }
    wal.flush();
  }
  std::vector<double> times;
  long sink = 0;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    stm::Wal::recover(dir, [&](const stm::WalRecordView& v) {
      sink += static_cast<long>(v.epoch) + static_cast<long>(v.size);
    });
    times.push_back(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  if (sink == 42) std::fprintf(stderr, "#\n");  // keep the fold alive
  Row row = c.row("wal", "recovery");
  row.variant = ckpt_on ? "ckpt" : "no-ckpt";
  row.mode = stm::to_string(Mode::Lazy);
  row.threads = 1;
  // total_ops is the history length; ops_per_sec the history recovered per
  // second (flat without cuts, growing with the multiplier with them).
  row.measure(detail::reduce(times, nullptr), history, /*use_min=*/true);
  row.abort_ratio.reset();
  row.commits.reset();
  row.aborts.reset();
  row.stm_accesses.reset();
  c.out.add(row);
}

// ---------------------------------------------------------------------------
// Presets. Each reads its axes with the defaults of the table it reproduces.
// ---------------------------------------------------------------------------

/// Synchrobench-style sweep of the map, ordered and pqueue families.
void preset_matrix(Ctx& c) {
  const std::vector<PinPolicy> pins = {PinPolicy::None, PinPolicy::Compact,
                                       PinPolicy::Scatter};
  const std::vector<long> threads = {1, 2, 4, 8};
  const std::vector<double> us = {0, 0.25, 0.5, 0.75, 1};
  const std::vector<long> keys = {256, 4096};
  MapGrid g = map_grid(c, 100000, 2, 5);
  g.use_min = c.use_min(true);
  g.impls = {"pure-stm",         "predication",        "proust-eager",
             "proust-pess",      "proust-pess-lazy",   "proust-lazy-snap",
             "proust-lazy-memo", "proust-lazy-memo+c", "global-lock"};
  g.pins = c.pins(pins);
  g.threads = c.longs("threads", threads);
  g.us = c.doubles("u", us);
  g.key_ranges = c.longs("key-range", keys);
  g.zipfs = c.doubles("zipf", {0, 0.9}, 10);
  g.os = c.longs("o", {1, 4, 64});
  run_map_grid(c, g);
  run_ordered_grid(
      c, ordered_cells(c, g.cfg, us, keys, {0.1, 0.3}, {64, 512}, threads, pins),
      g.use_min);
  std::vector<Mix> mixes;
  for (double u : c.doubles("u", us)) {
    mixes.push_back({"", u / 2, u / 2, 0.2 * (1 - u)});
  }
  run_pqueue_grid(c, mixes, thread_pin_cells(c, g.cfg, threads, pins),
                  c.scalar("prefill", c.smoke ? 1000 : 10000), g.use_min);
}

/// Figure 4 (top): the map implementations of §7 over u × o × threads.
void preset_fig4_top(Ctx& c) {
  MapGrid g = map_grid(c, 30000, 1, 2);
  g.impls = {"pure-stm",         "predication", "proust-eager",
             "proust-lazy-snap", "proust-lazy-memo", "proust-pess",
             "global-lock"};
  g.pess_only_o1 = true;
  g.us = c.doubles("u", {0, 0.5, 1});
  g.os = c.longs("o", {1, 16, 256});
  g.threads = c.longs("threads", {1, 2, 4, 8, 16});
  run_map_grid(c, g);
}

/// The pessimistic LAP's eager and lazy-memo wrappers over threads, at o=1.
void preset_pess_sweep(Ctx& c) {
  MapGrid g = map_grid(c, 30000, 1, 3);
  g.impls = {"proust-pess", "proust-pess-lazy"};
  g.us = c.doubles("u", {0.5, 1});
  g.threads = c.longs("threads", {1, 2, 4, 8, 16});
  run_map_grid(c, g);
}

/// Figure 4 (bottom): memoizing shadow copies, log combining off/on.
void preset_fig4_bottom(Ctx& c) {
  MapGrid g = map_grid(c, 30000, 1, 2);
  g.impls = {"proust-lazy-memo", "proust-lazy-memo+c"};
  g.us = c.doubles("u", {0.5, 1});
  g.os = c.longs("o", {16, 256});
  g.threads = c.longs("threads", {1, 2, 4});
  // Small key ranges concentrate repeated writes per key.
  g.key_ranges = c.longs("key-range", {1024, 64});
  run_map_grid(c, g);
}

/// The log-combining family: §7's memoized-replay combining plus §9's
/// snapshot-replay extension. Its cells take 4-60 ms, where one run can
/// stray 3x from the median, so each reports the fastest of 10 runs.
void preset_combining(Ctx& c) {
  MapGrid g = map_grid(c, 30000, 1, 10);
  g.use_min = c.use_min(true);
  g.us = c.doubles("u", {1});
  g.threads = c.longs("threads", {2});
  g.os = c.longs("o", {16, 64, 256});
  g.key_ranges = c.longs("key-range", {32, 1024});
  g.impls = {"proust-lazy-memo", "proust-lazy-memo+c", "proust-lazy-snap",
             "proust-lazy-snap+c"};
  run_map_grid(c, g);
}

/// Figure 1: every wrapper strategy × LAP × STM mode on one workload. The
/// eager/optimistic rows on Lazy and EagerWrite are the non-opaque
/// combination (footnote 3), run for the same reason the paper did. Cells
/// take 0.5-20 ms, where one run can stray several times from the median,
/// so each reports the fastest of 10 runs, as combining does.
void preset_design_space(Ctx& c) {
  MapGrid g = map_grid(c, 20000, 1, 10);
  g.use_min = c.use_min(true);
  g.threads = c.longs("threads", {4});
  g.os = c.longs("o", {8});
  g.modes = c.modes({Mode::Lazy, Mode::EagerWrite, Mode::EagerAll});
  g.impls = {"proust-eager",       "proust-lazy-snap", "proust-lazy-memo",
             "proust-lazy-memo+c", "pure-stm",         "predication"};
  run_map_grid(c, g);
  // Pessimistic: the STM mode only affects the reified size ref, so one
  // mode suffices, and o=1 keeps it out of the livelock regime.
  g.modes = c.modes({Mode::Lazy});
  g.os = {1};
  g.impls = {"proust-pess"};
  run_map_grid(c, g);
}

/// §7's note: pessimistic Proust degrades sharply as transactions grow
/// under contention (timeout-aborts here, livelock in the paper); the
/// optimistic LAP at the same settings for contrast.
void preset_livelock(Ctx& c) {
  MapGrid g = map_grid(c, 60000, 0, 1);
  g.impls = {"proust-pess", "proust-eager"};
  g.key_ranges = c.longs("key-range", {16});
  g.us = c.doubles("u", {0.75});
  g.threads = c.longs("threads", {2, 4, 8});
  g.os = c.longs("o", {1, 4, 16, 64});
  run_map_grid(c, g);
}

/// §3's CA region size M: eager/optimistic over M, the pessimistic LAP's
/// stripes × threads, and the false conflicts the bounded model counts.
void preset_striping(Ctx& c) {
  MapGrid g = map_grid(c, 20000, 1, 2);
  g.os = c.longs("o", {4});
  g.threads = c.longs("threads", {4});
  g.impls = {"proust-eager"};
  g.ca_slots = c.longs("ca-slots", {4, 16, 64, 256, 1024, 4096});
  run_map_grid(c, g);
  g.threads = c.longs("threads", {1, 2, 4, 8, 16});
  g.ca_slots = c.longs("ca-slots", {64, 1024});
  g.impls = {"proust-pess", "proust-pess-lazy"};
  run_map_grid(c, g);
  const verify::ModelSpec model = verify::make_map_model(4, 2);
  for (long m : c.longs("ca-slots", {1, 2, 3, 4})) {
    Row row = c.row("model", "map-ca-striped");
    row.variant = "4-key model";
    row.ca_slots = m;
    row.total_ops = static_cast<long>(verify::count_pairs(model));
    row.aborts = static_cast<double>(verify::count_false_conflicts(
        model, verify::map_ca_striped(static_cast<int>(m))));
    c.out.add(row);
  }
}

/// Contention management: backoff vs immediate retry × threads on a hot-key,
/// all-update workload, without and with the irrevocable gate (--fallback).
void preset_cm(Ctx& c) {
  MapGrid g = map_grid(c, 40000, 1, 2);
  g.impls = {"proust-eager"};
  g.key_ranges = c.longs("key-range", {32});
  g.us = c.doubles("u", {1});
  g.os = c.longs("o", {8});
  g.threads = c.longs("threads", {1, 2, 4, 8, 16});
  for (long fallback : c.longs("fallback", {0, 16}, 0)) {
    for (const stm::CmPolicy p :
         {stm::CmPolicy::ExponentialBackoff, stm::CmPolicy::None}) {
      MapGrid x = g;
      x.opts.cm_policy = p;
      x.opts.fallback_after = static_cast<unsigned>(fallback);
      x.variant = std::string(stm::to_string(p)) +
                  (fallback > 0 ? "/fallback=" + std::to_string(fallback) : "");
      run_map_grid(c, x);
    }
  }
}

/// §3's counter: the one-location CA vs a pure-STM counter.
void preset_counter(Ctx& c) {
  const RunConfig cfg = c.config(80000, 1, 3);
  run_counter_grid(c, thread_pin_cells(c, cfg, {1, 2, 4, 8}),
                   c.cli.get_double("decr", 0.5), c.use_min());
}

/// §6's priority queue: abstract-state CA vs Boosting's single RW lock.
void preset_pqueue(Ctx& c) {
  const RunConfig cfg = c.config(16000, 1, 3);
  run_pqueue_grid(c,
                  {{"insert-heavy", 0.80, 0.10, 0.05},
                   {"balanced", 0.40, 0.40, 0.10},
                   {"observer-heavy", 0.20, 0.10, 0.60}},
                  thread_pin_cells(c, cfg, {1, 2, 4, 8}),
                  c.scalar("prefill", 10000), c.use_min());
}

/// §1's range commutativity: update-only point ops plus scans of growing
/// width.
void preset_range(Ctx& c) {
  const RunConfig cfg = c.config(12000, 1, 3);
  run_ordered_grid(c,
                   ordered_cells(c, cfg, {1}, {4096}, {0.2}, {64, 512, 4096},
                                 {4}, {PinPolicy::None}),
                   c.use_min());
}

/// §1's false conflicts under forced overlap; shrinking M reintroduces them
/// at the Proust layer.
void preset_false_conflicts(Ctx& c) {
  MapGrid g = map_grid(c, 4800, 0, 1);
  g.pins = {PinPolicy::None};
  g.modes = c.modes({Mode::EagerAll, Mode::Lazy});
  g.threads = c.longs("threads", {2});
  g.os = c.longs("o", {8});
  g.ca_slots = c.longs("ca-slots", {1024, 64, 8, 1});
  g.impls = {"pure-stm",         "pure-stm-tree",    "predication",
             "proust-eager",     "proust-lazy-memo", "proust-lazy-snap"};
  run_lock_step_grid(c, g);
}

/// Group commit: threads × durability {off, relaxed, strict} × fsync_n.
void preset_wal(Ctx& c) {
  Scratch scratch("commit");
  const RunConfig cfg = c.config(40000, 1, 5);
  const bool use_min = c.use_min(true);
  int n = 0;
  for (Cell cell : thread_pin_cells(c, cfg, {1, 2, 4})) {
    cell.variant = "off";
    wal_commit_cell(c, cell, nullptr, use_min);
    for (const auto dur :
         {stm::WalDurability::Relaxed, stm::WalDurability::Strict}) {
      for (long fsync_n : c.longs("fsync-n", {1, 8, 64})) {
        stm::WalOptions wopts;
        wopts.dir = scratch.sub("c" + std::to_string(n++));
        wopts.fsync_every_n = static_cast<std::uint32_t>(fsync_n);
        wopts.durability = dur;
        stm::Wal wal(wopts);
        cell.variant =
            std::string(dur == stm::WalDurability::Strict ? "strict"
                                                          : "relaxed") +
            "/fsync=" + std::to_string(fsync_n);
        wal_commit_cell(c, cell, &wal, use_min);
      }
    }
  }
}

/// Bounded restart: cold recovery time vs history multiplier, with and
/// without checkpoints.
void preset_wal_recovery(Ctx& c) {
  Scratch scratch("recovery");
  const RunConfig cfg = c.config(6000, 0, 5);
  int n = 0;
  for (const bool ckpt : {false, true}) {
    for (long mult : c.longs("mult", {1, 4, 16})) {
      wal_recovery_cell(c, scratch.sub("r" + std::to_string(n++)), ckpt,
                        cfg.total_ops, mult, cfg.timed_runs);
    }
  }
}

/// Idle-durability neutrality, paired and interleaved: stock StmOptions vs a
/// Wal attached but never logged to vs the same plus a live, parked
/// background Checkpointer. Nothing is registered or logged, so the B sides
/// price only what commits that do not log pay: the durability branches
/// and the wal_fenced predicate, plus the checkpointer thread's existence.
void preset_wal_ab(Ctx& c) {
  Scratch scratch("ab");
  MapGrid g = map_grid(c, 200000, 2, 7);
  g.use_min = c.use_min(true);
  g.impls = {"pure-stm"};
  g.os = c.longs("o", {4});
  g.us = c.doubles("u", {0, 0.5});
  g.threads = c.longs("threads", {1, 2});
  stm::WalOptions wopts;
  wopts.dir = scratch.sub("wal");
  stm::Wal wal(wopts);
  wopts.dir = scratch.sub("ckpt");
  stm::Wal ckpt_wal(wopts);
  stm::Checkpointer cp(ckpt_wal, stm::CheckpointOptions{});
  run_map_ab<PureStmAdapter>(
      c, g, {"defaults", "wal-idle", "ckpt-idle"},
      [&](std::size_t side, const Cell& cell) {
        stm::StmOptions o = g.opts;
        o.durability = side == 0 ? nullptr : side == 1 ? &wal : &ckpt_wal;
        return std::make_unique<PureStmAdapter>(cell.mode, cell.cfg.key_range,
                                                o);
      });
}

/// Parse every flag once before the first run, so a bad value fails fast
/// whichever flags the preset reads.
void check_flags(const Ctx& c) {
  for (const char* f : {"threads", "o", "key-range", "scan-width",
                        "ca-slots", "fsync-n", "mult"}) {
    (void)c.longs(f, {});
  }
  (void)c.longs("fallback", {}, 0);
  for (const char* f : {"u", "scan-frac", "decr"}) (void)c.doubles(f, {});
  (void)c.doubles("zipf", {}, 10);
  (void)c.modes({});
  (void)c.pins({});
  (void)c.config(1, 0, 1);
  (void)c.use_min();
  (void)c.scalar("prefill", 1, 1);
}

constexpr Cli::Named<void (*)(Ctx&)> kPresets[] = {
    {"matrix", preset_matrix},
    {"fig4-top", preset_fig4_top},
    {"pess-sweep", preset_pess_sweep},
    {"fig4-bottom", preset_fig4_bottom},
    {"combining", preset_combining},
    {"design-space", preset_design_space},
    {"livelock", preset_livelock},
    {"striping", preset_striping},
    {"cm", preset_cm},
    {"counter", preset_counter},
    {"pqueue", preset_pqueue},
    {"range", preset_range},
    {"false-conflicts", preset_false_conflicts},
    {"wal", preset_wal},
    {"wal-recovery", preset_wal_recovery},
    {"wal-ab", preset_wal_ab},
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, kSwitches, kValueFlags);
  const std::string preset = cli.get("preset", "matrix");
  void (*const run)(Ctx&) = Cli::lookup("preset", preset, kPresets);

  RowSink out(stdout);
  Ctx ctx{cli, out, preset, cli.has("smoke")};
  check_flags(ctx);

  const topo::Topology& host = topo::Topology::system();
  std::fprintf(stderr, "# bench_matrix --preset=%s%s: host cpus=%u nodes=%u "
               "smt=%d\n",
               preset.c_str(), ctx.smoke ? " --smoke" : "", host.cpu_count(),
               host.node_count, host.smt ? 1 : 0);
  run(ctx);

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    if (!out.write_json(json_path, cli.get("label", preset))) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "# wrote %s\n", json_path.c_str());
  }
  return 0;
}
