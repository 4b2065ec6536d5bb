// Group-commit latency/throughput sweep for the durability axis (DESIGN.md
// §14): threads × durability {off, relaxed, strict} × fsync_every_n
// {1, 8, 64}, each cell timing transactions that write one var and log a
// 64-byte redo record. `off` cells run the identical workload with no Wal
// attached, so the sweep shows the cost of the subsystem itself, the cost
// of relaxed appends, and the fsync-bounded strict ack (whose mean wait is
// reported from the wal_wait_ns stats counter).
//
// --recovery: the bounded-restart sweep for the checkpoint layer (DESIGN.md
// §15). History length is swept as a multiplier over a fixed live-state
// size, with the checkpointer off vs taking periodic cuts; the measured
// quantity is cold recovery time of the resulting directory. Without
// checkpoints recovery cost grows with the multiplier; with them it tracks
// live state + the unretired tail, which is the layer's contract.
//
// --ab: the default-neutrality check. A = stock StmOptions. B = a live Wal
// *attached but never logged to* — every commit takes the compiled-in
// durability branches, nothing is staged or published. With --ckpt, B
// additionally runs a live background Checkpointer parked on the log, so
// the cell prices the checkpoint layer's whole non-participant surface: the
// wal_fenced predicate every commit now evaluates plus the idle
// checkpointer thread. Paired-interleaved runs; the acceptance bar is
// min-time ratio >= 0.97.
//
// All modes share one flat CSV schema (--csv <path>); rows carry the same
// host-topology block as the scenario matrix, and --json records embed it
// per record, so output from different machines stays comparable.
//
// Segments land in a scratch directory under the working directory and are
// removed on exit.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/csv.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/json.hpp"
#include "bench_util/table.hpp"
#include "common/rng.hpp"
#include "stm/checkpoint.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"

using namespace proust;
using bench::Cli;
using bench::CsvWriter;
using bench::JsonRecord;
using bench::JsonWriter;
using bench::RunConfig;
using bench::Table;
using bench::TimedRuns;

namespace {

struct Scratch {
  std::string path;
  explicit Scratch(const std::string& tag)
      : path("bench_wal_" + tag + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    std::filesystem::create_directory(path, ec);
  }
  ~Scratch() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

/// One schema for all three run modes so one plot script consumes any
/// bench_wal CSV: inapplicable fields carry "-". `extra` is the mode's
/// auxiliary knob (history multiplier for --recovery, unused elsewhere).
std::vector<std::string> csv_columns() {
  std::vector<std::string> cols = {"workload", "mode",        "fsync_n",
                                   "threads",  "u",           "extra",
                                   "ms",       "ops_per_sec", "ack_us"};
  for (const std::string& c : CsvWriter::host_columns()) cols.push_back(c);
  return cols;
}

void csv_row(CsvWriter* csv, const std::string& workload,
             const std::string& mode, const std::string& fsync_n, int threads,
             const std::string& u, const std::string& extra, double ms,
             double ops_s, const std::string& ack_us) {
  if (csv == nullptr) return;
  std::vector<std::string> row = {workload,
                                  mode,
                                  fsync_n,
                                  std::to_string(threads),
                                  u,
                                  extra,
                                  CsvWriter::fmt(ms, 3),
                                  CsvWriter::fmt(ops_s, 1),
                                  ack_us};
  for (const std::string& f : CsvWriter::host_fields()) row.push_back(f);
  csv->row(row);
}

struct SweepCtx {
  long ops = 0;
  int warmup = 0;
  int runs = 1;
  Table* table = nullptr;
  CsvWriter* csv = nullptr;
  JsonWriter* json = nullptr;
};

/// One sweep cell: `threads` workers, each transaction writes its thread's
/// var and (when `wal` is attached) logs a 64-byte record. Returns txn/s.
void run_cell(SweepCtx& ctx, const std::string& durability, long fsync_n,
              int threads, stm::Wal* wal) {
  stm::StmOptions opts;
  opts.durability = wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  std::vector<stm::Var<long>> vars(static_cast<std::size_t>(threads));
  std::uint8_t payload[64] = {};
  const long iters = (ctx.ops + threads - 1) / threads;
  const TimedRuns t = bench::run_ops_timed(
      threads, iters, ctx.warmup, ctx.runs, /*seed=*/131, /*pin_plan=*/{},
      [&](int w, Xoshiro256& rng) {
        const long v = static_cast<long>(rng());
        s.atomically([&](stm::Txn& tx) {
          vars[static_cast<std::size_t>(w)].write(tx, v);
          if (wal != nullptr) {
            std::memcpy(payload, &v, sizeof v);
            tx.wal_log(/*stream=*/1, payload, sizeof payload);
          }
        });
      },
      [&] { s.stats().reset(); });
  if (wal != nullptr) wal->flush();

  const stm::StatsSnapshot st = s.stats().snapshot();
  const long total = iters * threads;
  const double txn_s = t.ops_per_sec(total, /*use_min=*/true);
  const double ack_us =
      st.wal_strict_waits > 0
          ? static_cast<double>(st.wal_wait_ns) /
                static_cast<double>(st.wal_strict_waits) / 1000.0
          : 0.0;
  ctx.table->row({durability, fsync_n > 0 ? std::to_string(fsync_n) : "-",
                  std::to_string(threads), Table::fmt(t.min_ms, 2),
                  Table::fmt(txn_s / 1000.0, 1), Table::fmt(ack_us, 1)});
  csv_row(ctx.csv, "group_commit", durability,
          fsync_n > 0 ? std::to_string(fsync_n) : "-", threads, "-", "-",
          t.min_ms, txn_s, CsvWriter::fmt(ack_us, 2));
  if (ctx.json != nullptr) {
    JsonRecord r;
    r.bench = "wal";
    r.workload = "group_commit";
    r.mode = durability;
    r.threads = threads;
    r.ops_per_txn = 1;
    r.ops_per_sec = txn_s;
    r.extra = fsync_n;
    ctx.json->add(r);
  }
}

int run_sweep(const Cli& cli, CsvWriter* csv, JsonWriter* json) {
  const bool smoke = cli.has("smoke");
  Scratch scratch("sweep");
  SweepCtx ctx;
  ctx.ops = cli.get_long("ops", smoke ? 2000 : 40000);
  ctx.warmup = static_cast<int>(cli.get_long("warmup", smoke ? 0 : 1));
  ctx.runs = static_cast<int>(cli.get_long("runs", smoke ? 1 : 5));
  ctx.csv = csv;
  ctx.json = json;
  const auto thread_counts = cli.get_longs(
      "threads", smoke ? std::vector<long>{1, 2} : std::vector<long>{1, 2, 4});
  const auto fsync_ns = cli.get_longs("fsync-n", std::vector<long>{1, 8, 64});

  std::printf("# wal sweep: ops=%ld runs=%d (min) %s\n", ctx.ops, ctx.runs,
              smoke ? "(smoke)" : "");
  Table table({"durability", "fsync_n", "threads", "ms", "ktxn/s", "ack-us"});
  ctx.table = &table;
  int cell = 0;
  for (long t : thread_counts) {
    run_cell(ctx, "off", 0, static_cast<int>(t), nullptr);
    for (const char* dur : {"relaxed", "strict"}) {
      for (long n : fsync_ns) {
        stm::WalOptions wopts;
        wopts.dir = scratch.sub("c" + std::to_string(cell++));
        wopts.fsync_every_n = static_cast<std::uint32_t>(n);
        wopts.durability = std::string(dur) == "strict"
                               ? stm::WalDurability::Strict
                               : stm::WalDurability::Relaxed;
        stm::Wal wal(wopts);
        run_cell(ctx, dur, n, static_cast<int>(t), &wal);
      }
    }
  }
  return 0;
}

/// Cold recovery time vs history length, checkpointer off vs periodic cuts.
/// Live state is fixed (kVars registered vars); history is `mult × base`
/// updates over them. With cuts every `base` records the replayed tail is
/// bounded by `base` however long the history grows.
int run_recovery(const Cli& cli, CsvWriter* csv, JsonWriter* json) {
  const bool smoke = cli.has("smoke");
  constexpr int kVars = 32;
  const long base = cli.get_long("ops", smoke ? 1500 : 6000);
  const int runs = static_cast<int>(cli.get_long("runs", smoke ? 2 : 5));
  const auto mults = cli.get_longs(
      "mult", smoke ? std::vector<long>{1, 4} : std::vector<long>{1, 4, 16});

  Scratch scratch("recovery");
  std::printf("# wal recovery: base=%ld ops, %d timed recoveries (min) %s\n",
              base, runs, smoke ? "(smoke)" : "");
  Table table({"ckpt", "mult", "history", "segs", "tail-recs", "recover-ms",
               "Mops/s"});
  int cell = 0;
  for (const bool ckpt_on : {false, true}) {
    for (long mult : mults) {
      const std::string dir = scratch.sub("r" + std::to_string(cell++));
      const long history = base * mult;
      {
        std::vector<stm::Var<long>> vars(kVars);
        stm::WalOptions wopts;
        wopts.dir = dir;
        wopts.segment_bytes = 16 * 1024;  // rotations every few hundred recs
        wopts.fsync_every_n = 64;
        stm::Wal wal(wopts);
        for (int i = 0; i < kVars; ++i) {
          wal.register_var(static_cast<std::uint64_t>(i + 1),
                           vars[static_cast<std::size_t>(i)]);
        }
        stm::StmOptions opts;
        opts.durability = &wal;
        stm::Stm s(stm::Mode::Lazy, opts);
        stm::CheckpointOptions copts;  // both triggers 0: manual cuts only,
        stm::Checkpointer cp(wal, copts);  // so the tail is deterministic
        for (long j = 1; j <= history; ++j) {
          s.atomically([&](stm::Txn& tx) {
            vars[static_cast<std::size_t>(j % kVars)].write(tx, j);
          });
          // Periodic cuts, but never right at the end — recovery always
          // has a non-empty tail to replay atop the newest checkpoint. The
          // flush first drains the committer so the covered history sits in
          // *sealed* segments, which is what retirement can unlink.
          if (ckpt_on && j % base == 0 && j != history) {
            wal.flush();
            (void)cp.checkpoint_now();
          }
        }
        wal.flush();
      }
      // Cold restart: recover the directory into a fold, timed.
      double min_ms = 0;
      long sink = 0;
      stm::WalRecoveryInfo info;
      for (int r = 0; r < runs; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        info = stm::Wal::recover(dir, [&](const stm::WalRecordView& v) {
          sink += static_cast<long>(v.epoch) + static_cast<long>(v.size);
        });
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (r == 0 || ms < min_ms) min_ms = ms;
      }
      if (sink == 42) std::printf("#");  // keep the fold from being elided
      const double hist_per_s =
          static_cast<double>(history) / min_ms * 1000.0;
      table.row({ckpt_on ? "on" : "off", std::to_string(mult),
                 std::to_string(history), std::to_string(info.segments),
                 std::to_string(info.records), Table::fmt(min_ms, 3),
                 Table::fmt(hist_per_s / 1e6, 2)});
      csv_row(csv, "recovery", ckpt_on ? "ckpt" : "no-ckpt", "-", 1, "-",
              std::to_string(mult), min_ms, hist_per_s, "-");
      if (json != nullptr) {
        JsonRecord r;
        r.bench = "wal";
        r.workload = "recovery";
        r.mode = ckpt_on ? "ckpt" : "no-ckpt";
        r.threads = 1;
        r.ops_per_txn = 1;
        // History ops covered per second of restart: with cuts this grows
        // with the multiplier (bounded replay), without it stays flat.
        r.ops_per_sec = hist_per_s;
        r.extra = mult;
        json->add(r);
      }
    }
  }
  return 0;
}

int run_neutrality_ab(const Cli& cli, CsvWriter* csv, JsonWriter* json) {
  RunConfig cfg;
  cfg.total_ops = cli.get_long("ops", 200000);
  cfg.key_range = cli.get_long("key-range", 1024);
  cfg.ops_per_txn = static_cast<int>(cli.get_long("o", 4));
  cfg.warmup_runs = static_cast<int>(cli.get_long("warmup", 2));
  cfg.timed_runs = static_cast<int>(cli.get_long("runs", 7));
  const stm::Mode mode = cli.get_mode("mode", stm::Mode::Lazy);
  const bool with_ckpt = cli.has("ckpt");
  const char* b_name = with_ckpt ? "ab-ckpt-idle" : "ab-wal-idle";

  Scratch scratch("ab");
  stm::WalOptions wopts;
  wopts.dir = scratch.sub("idle");
  stm::Wal wal(wopts);
  // --ckpt: park a live background Checkpointer on the attached log (no
  // triggers; its thread sleeps between polls). No var is registered and
  // nothing is ever logged, so B prices exactly what PR 10 added for
  // commits that do not log: the wal_fenced predicate on the commit path
  // plus the checkpointer's existence. The fence bracket itself is only
  // taken by logging commits — its cost is part of the durability feature
  // and shows up in the group-commit sweep, not here.
  std::unique_ptr<stm::Checkpointer> cp;
  if (with_ckpt) {
    cp = std::make_unique<stm::Checkpointer>(wal, stm::CheckpointOptions{});
  }
  stm::StmOptions with;
  with.durability = &wal;  // attached, never logged to

  std::printf("# neutrality A/B: defaults vs %s, "
              "paired-interleaved, %d runs (min)\n", b_name, cfg.timed_runs);
  Table table({"u", "threads", "off-ms", "wal-ms", "wal/off", "off-ab%",
               "wal-ab%"});
  for (double u : cli.get_doubles("u", std::vector<double>{0, 0.5})) {
    for (long t : cli.get_longs("threads", std::vector<long>{1, 2})) {
      cfg.write_fraction = u;
      cfg.threads = static_cast<int>(t);
      bench::PureStmAdapter off(mode, cfg.key_range, stm::StmOptions{});
      bench::PureStmAdapter on(mode, cfg.key_range, with);
      bench::prefill_half(off, cfg.key_range);
      bench::prefill_half(on, cfg.key_range);
      const auto [ro, rw] = bench::run_map_throughput_paired(off, on, cfg);
      table.row({Table::fmt(u, 2), std::to_string(t),
                 Table::fmt(ro.min_ms, 2), Table::fmt(rw.min_ms, 2),
                 Table::fmt(rw.min_ms / ro.min_ms, 3),
                 Table::fmt(100.0 * ro.abort_ratio(), 1),
                 Table::fmt(100.0 * rw.abort_ratio(), 1)});
      for (const bool b_side : {false, true}) {
        const bench::RunResult& tr = b_side ? rw : ro;
        const char* name = b_side ? b_name : "ab-defaults";
        csv_row(csv, name, stm::to_string(mode), "-", static_cast<int>(t),
                CsvWriter::fmt(u, 2), "-", tr.min_ms,
                tr.ops_per_sec_min(cfg.total_ops), "-");
        if (json != nullptr) {
          JsonRecord r;
          r.bench = "wal";
          r.workload = name;
          r.mode = stm::to_string(mode);
          r.threads = static_cast<int>(t);
          r.ops_per_txn = cfg.ops_per_txn;
          r.write_fraction = u;
          r.ops_per_sec = tr.ops_per_sec_min(cfg.total_ops);
          json->add(r);
        }
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string json_path = cli.get("json", "");
  JsonWriter json(cli.get("label", "wal"));
  JsonWriter* jp = json_path.empty() ? nullptr : &json;
  const std::string csv_path = cli.get("csv", "");
  CsvWriter csv(csv_columns());
  CsvWriter* cvp = csv_path.empty() ? nullptr : &csv;

  const int rc = cli.has("ab")         ? run_neutrality_ab(cli, cvp, jp)
                 : cli.has("recovery") ? run_recovery(cli, cvp, jp)
                                       : run_sweep(cli, cvp, jp);
  if (rc == 0 && cvp != nullptr) {
    if (!csv.write(csv_path)) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("# wrote %s (%zu rows)\n", csv_path.c_str(), csv.row_count());
  }
  if (rc == 0 && jp != nullptr) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return rc;
}
