// Unit tests for the durability subsystem (stm/wal.hpp, ctest label
// "durability"): record staging and recovery roundtrips, epoch density,
// abort discard, strict/relaxed acknowledgement, concurrent publishers
// (dense epochs and per-thread order across staging slots), segment
// rotation, torn-tail truncation, half-rotated .tmp discard, and fail-stop
// behavior on injected I/O errors. The crash-point matrix lives in
// tests/wal_crash_test.cpp; this file only exercises the live-process
// paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos_fs.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"
#include "stm/wal_format.hpp"

namespace stm = proust::stm;
namespace common = proust::common;
namespace fs = std::filesystem;

namespace {

/// Unique scratch directory under the test's working directory, removed on
/// scope exit (recovery tests re-open it several times in between).
struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) {
    path = std::string("wal_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(::getpid()));
    fs::remove_all(path);
    fs::create_directory(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct Rec {
  std::uint64_t epoch;
  std::uint32_t stream;
  std::vector<std::uint8_t> data;
};

std::vector<Rec> recover_all(const std::string& dir,
                             stm::WalRecoveryInfo* info_out = nullptr) {
  std::vector<Rec> out;
  const stm::WalRecoveryInfo info =
      stm::Wal::recover(dir, [&](const stm::WalRecordView& r) {
        out.push_back(Rec{r.epoch, r.stream,
                          std::vector<std::uint8_t>(r.data, r.data + r.size)});
      });
  if (info_out != nullptr) *info_out = info;
  return out;
}

}  // namespace

TEST(WalTest, LoggedCommitsRoundtripInEpochOrder) {
  TempDir dir("roundtrip");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 100; ++i) {
      s.atomically([&](stm::Txn& tx) {
        ASSERT_TRUE(tx.wal_enabled());
        tx.wal_log(1, &i, sizeof i);
      });
    }
    const stm::StatsSnapshot st = s.stats().snapshot();
    EXPECT_EQ(st.wal_publishes, 100u);
    EXPECT_EQ(st.wal_records, 100u);
  }  // Wal dtor drains and fsyncs everything published.

  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  ASSERT_EQ(recs.size(), 100u);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.last_epoch, 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(recs[i].epoch, i + 1) << "epochs must be dense from 1";
    EXPECT_EQ(recs[i].stream, 1u);
    std::uint32_t v;
    ASSERT_EQ(recs[i].data.size(), sizeof v);
    std::memcpy(&v, recs[i].data.data(), sizeof v);
    EXPECT_EQ(v, i);
  }
}

TEST(WalTest, MultiRecordTransactionsShareOneEpoch) {
  TempDir dir("multirec");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 10; ++i) {
      s.atomically([&](stm::Txn& tx) {
        for (std::uint32_t j = 0; j < 3; ++j) {
          const std::uint32_t payload = i * 10 + j;
          tx.wal_log(2, &payload, sizeof payload);
        }
      });
    }
  }
  const std::vector<Rec> recs = recover_all(dir.path);
  ASSERT_EQ(recs.size(), 30u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].epoch, i / 3 + 1)
        << "records of one transaction must carry its epoch";
  }
}

TEST(WalTest, AbortedAttemptsNeverReachTheLog) {
  TempDir dir("abort");
  struct Poison {};
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 20; ++i) {
      if (i % 2 == 0) {
        s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
      } else {
        // Stage a distinctive record, then abort via a user exception: the
        // arena (and the staged bytes with it) is discarded on rollback.
        EXPECT_THROW(s.atomically([&](stm::Txn& tx) {
          const std::uint32_t poison = 0xDEADBEEFu;
          tx.wal_log(1, &poison, sizeof poison);
          throw Poison{};
        }),
                     Poison);
      }
    }
  }
  const std::vector<Rec> recs = recover_all(dir.path);
  ASSERT_EQ(recs.size(), 10u);
  for (const Rec& r : recs) {
    std::uint32_t v;
    std::memcpy(&v, r.data.data(), sizeof v);
    EXPECT_NE(v, 0xDEADBEEFu) << "aborted attempt's record resurrected";
    EXPECT_EQ(v % 2, 0u);
  }
}

TEST(WalTest, RegisteredVarsAreLoggedAndReplayable) {
  TempDir dir("vars");
  stm::Var<long> a(0), b(0);
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    wal.register_var(7, a);
    wal.register_var(8, b);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (long i = 1; i <= 50; ++i) {
      s.atomically([&](stm::Txn& tx) {
        a.write(tx, i);
        if (i % 5 == 0) b.write(tx, a.read(tx) * 2);
      });
    }
  }
  // Replay: last write per var id wins (records arrive in epoch order).
  std::map<std::uint64_t, long> replayed;
  std::uint64_t n = 0;
  stm::Wal::recover(dir.path, [&](const stm::WalRecordView& r) {
    std::uint64_t id;
    const std::uint8_t* value;
    std::uint32_t size;
    ASSERT_TRUE(stm::Wal::decode_var_record(r, id, value, size));
    ASSERT_EQ(size, sizeof(long));
    long v;
    std::memcpy(&v, value, sizeof v);
    replayed[id] = v;
    ++n;
  });
  EXPECT_EQ(n, 60u);  // 50 writes of a + 10 of b
  EXPECT_EQ(replayed[7], 50);
  EXPECT_EQ(replayed[8], 100);
}

TEST(WalTest, StrictAckImpliesDurable) {
  TempDir dir("strict");
  stm::WalOptions wopts;
  wopts.dir = dir.path;
  wopts.durability = stm::WalDurability::Strict;
  wopts.fsync_every_n = 4;
  stm::Wal wal(wopts);
  stm::StmOptions opts;
  opts.durability = &wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  for (std::uint32_t i = 0; i < 16; ++i) {
    s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
    // Single-threaded: this thread's commit is the newest published epoch,
    // and a strict ack means it is already fsync-covered.
    EXPECT_GE(wal.durable_epoch(), wal.published_epoch());
  }
  const stm::StatsSnapshot st = s.stats().snapshot();
  EXPECT_EQ(st.wal_strict_waits, 16u);
}

TEST(WalTest, RelaxedFlushCoversEverythingPublished) {
  TempDir dir("flush");
  stm::WalOptions wopts;
  wopts.dir = dir.path;
  wopts.fsync_every_n = 1000;  // batching alone would sit on the interval
  stm::Wal wal(wopts);
  stm::StmOptions opts;
  opts.durability = &wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  for (std::uint32_t i = 0; i < 10; ++i) {
    s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
  }
  wal.flush();
  EXPECT_EQ(wal.durable_epoch(), 10u);
  EXPECT_GE(wal.stats().fsyncs, 1u);
}

TEST(WalTest, ConcurrentPublishersKeepEpochsDenseAndInCommitOrder) {
  // Four threads publish from their own staging slots at once, on vars
  // they share, so commits conflict and the committer merges four streams.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kCommits = 5000;
  constexpr std::size_t kVars = 6;
  TempDir dir("concurrent");
  std::vector<std::unique_ptr<stm::Var<long>>> vars;
  for (std::size_t i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<stm::Var<long>>(0));
  }
  std::vector<long> final_values(kVars);
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    for (std::size_t i = 0; i < kVars; ++i) wal.register_var(i, *vars[i]);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint32_t i = 0; i < kCommits; ++i) {
          const std::uint32_t tag[2] = {static_cast<std::uint32_t>(t), i};
          const long value = t * 1000000L + i;
          s.atomically([&](stm::Txn& tx) {
            stm::Var<long>& a = *vars[(i + t) % kVars];
            stm::Var<long>& b = *vars[(i * 7 + 3 * t) % kVars];
            a.write(tx, value);
            b.write(tx, b.read(tx) + 1);
            tx.wal_log(1, tag, sizeof tag);
          });
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t i = 0; i < kVars; ++i) {
      final_values[i] = vars[i]->unsafe_ref();
    }
  }

  std::uint64_t last_epoch = 0;
  std::uint64_t units = 0;
  std::vector<std::int64_t> next_commit(kThreads, 0);
  std::vector<long> replayed(kVars, 0);
  bool dense = true;
  bool ordered = true;
  stm::Wal::recover(dir.path, [&](const stm::WalRecordView& r) {
    if (r.epoch != last_epoch) {
      dense = dense && r.epoch == last_epoch + 1;
      last_epoch = r.epoch;
      ++units;
    }
    std::uint64_t id;
    const std::uint8_t* value;
    std::uint32_t size;
    if (stm::Wal::decode_var_record(r, id, value, size)) {
      ASSERT_LT(id, kVars);
      ASSERT_EQ(size, sizeof(long));
      std::memcpy(&replayed[id], value, sizeof(long));
      return;
    }
    ASSERT_EQ(r.stream, 1u);
    std::uint32_t tag[2];
    ASSERT_EQ(r.size, sizeof tag);
    std::memcpy(tag, r.data, sizeof tag);
    ASSERT_LT(tag[0], static_cast<std::uint32_t>(kThreads));
    ordered = ordered && tag[1] == next_commit[tag[0]];
    next_commit[tag[0]] = tag[1] + 1;
  });
  EXPECT_TRUE(dense) << "a gap in the recovered epochs";
  EXPECT_EQ(last_epoch, kThreads * kCommits);
  EXPECT_EQ(units, kThreads * kCommits);
  EXPECT_TRUE(ordered) << "a thread's records out of its commit order";
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next_commit[t], kCommits);
  EXPECT_EQ(replayed, final_values)
      << "var records replayed in epoch order must give the final values";
}

TEST(WalTest, ConcurrentStrictAcksAreDurable) {
  constexpr int kThreads = 4;
  constexpr int kCommits = 200;
  TempDir dir("concurrent-strict");
  stm::WalOptions wopts;
  wopts.dir = dir.path;
  wopts.durability = stm::WalDurability::Strict;
  wopts.fsync_every_n = 3;
  stm::Wal wal(wopts);
  stm::StmOptions opts;
  opts.durability = &wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  std::atomic<int> early_acks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommits; ++i) {
        std::uint64_t epoch = 0;
        s.atomically([&](stm::Txn& tx) {
          tx.wal_log(1, &t, sizeof t);
          // Commit hooks run after the publish assigned the epoch and
          // before the strict wait.
          tx.on_commit([&] { epoch = tx.wal_epoch(); });
        });
        if (epoch == 0 || wal.durable_epoch() < epoch) early_acks.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(early_acks.load(), 0)
      << "a strict ack came before its epoch was durable";
  EXPECT_EQ(wal.durable_epoch(), std::uint64_t{kThreads} * kCommits);
  EXPECT_EQ(s.stats().snapshot().wal_strict_waits,
            std::uint64_t{kThreads} * kCommits);
}

TEST(WalTest, SegmentsRotateAndRecoverAcrossFiles) {
  TempDir dir("rotate");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    wopts.segment_bytes = 2048;  // force several rotations
    wopts.fsync_every_n = 8;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    std::uint8_t blob[64] = {};
    for (std::uint32_t i = 0; i < 200; ++i) {
      std::memcpy(blob, &i, sizeof i);
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, blob, sizeof blob); });
    }
    wal.flush();
    EXPECT_GT(wal.stats().rotations, 0u);
  }
  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  ASSERT_EQ(recs.size(), 200u);
  EXPECT_GT(info.segments, 1u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(recs[i].epoch, i + 1);
  }
}

TEST(WalTest, ReopenResumesEpochsAfterExistingHistory) {
  TempDir dir("reopen");
  for (int round = 0; round < 3; ++round) {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 10; ++i) {
      const std::uint32_t v = round * 10 + i;
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &v, sizeof v); });
    }
  }
  const std::vector<Rec> recs = recover_all(dir.path);
  ASSERT_EQ(recs.size(), 30u);
  for (std::uint32_t i = 0; i < 30; ++i) {
    EXPECT_EQ(recs[i].epoch, i + 1)
        << "epochs must stay dense across Wal restarts";
    std::uint32_t v;
    std::memcpy(&v, recs[i].data.data(), sizeof v);
    EXPECT_EQ(v, i);
  }
}

TEST(WalTest, TornTailIsDetectedAndTruncated) {
  TempDir dir("torn");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 20; ++i) {
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
    }
  }
  // Append garbage to the newest segment — a torn batch header.
  std::string last;
  for (const auto& ent : fs::directory_iterator(dir.path)) {
    const std::string p = ent.path().string();
    if (last.empty() || p > last) last = p;
  }
  ASSERT_FALSE(last.empty());
  const auto before = fs::file_size(last);
  {
    std::ofstream f(last, std::ios::binary | std::ios::app);
    const char garbage[] = "PBATnope-this-is-not-a-sealed-batch";
    f.write(garbage, sizeof garbage);
  }

  stm::WalRecoveryInfo info;
  std::vector<Rec> recs = recover_all(dir.path, &info);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_GT(info.truncated_bytes, 0u);
  ASSERT_EQ(recs.size(), 20u) << "the committed prefix must survive intact";
  EXPECT_EQ(fs::file_size(last), before) << "torn bytes must be truncated";

  // Second recovery: the tail is already clean.
  recs = recover_all(dir.path, &info);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(recs.size(), 20u);
}

TEST(WalTest, CorruptMidFileBatchDropsTheSuffix) {
  TempDir dir("midflip");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    wopts.fsync_every_n = 1;  // one batch per transaction
    wopts.durability = stm::WalDurability::Strict;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 8; ++i) {
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
    }
  }
  std::string seg;
  for (const auto& ent : fs::directory_iterator(dir.path)) {
    if (seg.empty()) seg = ent.path().string();
  }
  // Flip one payload byte roughly in the middle of the file: the batch CRC
  // must reject that batch, and everything after it is untrusted.
  std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(fs::file_size(seg) / 2));
  const char x = '\xFF';
  f.write(&x, 1);
  f.close();

  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_LT(recs.size(), 8u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].epoch, i + 1) << "surviving prefix must stay dense";
  }
}

TEST(WalTest, HalfRotatedTmpSegmentsAreDiscarded) {
  TempDir dir("tmpseg");
  {
    stm::WalOptions wopts;
    wopts.dir = dir.path;
    stm::Wal wal(wopts);
    stm::StmOptions opts;
    opts.durability = &wal;
    stm::Stm s(stm::Mode::Lazy, opts);
    for (std::uint32_t i = 0; i < 5; ++i) {
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &i, sizeof i); });
    }
  }
  {
    std::ofstream f(dir.path + "/seg-000099.wal.tmp", std::ios::binary);
    f << "half-rotated orphan";
  }
  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  EXPECT_EQ(info.skipped_tmp, 1u);
  EXPECT_EQ(recs.size(), 5u);
  EXPECT_FALSE(fs::exists(dir.path + "/seg-000099.wal.tmp"));
}

TEST(WalTest, RecoverOnMissingOrEmptyDirectoryIsEmpty) {
  const stm::WalRecoveryInfo missing =
      stm::Wal::recover("wal_test_no_such_dir_anywhere", {});
  EXPECT_EQ(missing.records, 0u);
  EXPECT_EQ(missing.last_epoch, 0u);

  TempDir dir("empty");
  const stm::WalRecoveryInfo empty = stm::Wal::recover(dir.path, {});
  EXPECT_EQ(empty.records, 0u);
  EXPECT_FALSE(empty.torn_tail);
}

TEST(WalTest, IoFailureFailsStopAndRefusesDurableCommits) {
  TempDir dir("failstop");
  stm::WalError seen{};
  int seen_count = 0;
  stm::WalOptions wopts;
  wopts.dir = dir.path;
  wopts.fsync_every_n = 1;
  wopts.durability = stm::WalDurability::Strict;
  wopts.on_error = [&](const stm::WalError& e) {
    seen = e;
    ++seen_count;
  };
  // Inject at the batch's first write: it fails before any byte of the
  // batch is written, so the on-disk prefix is exactly the pre-failure
  // history. (A failed fsync would leave the already-written batch visible
  // to a live-process recover via the page cache.)
  common::ChaosFs cfs;
  wopts.fs = &cfs;
  stm::Wal wal(wopts);
  stm::StmOptions opts;
  opts.durability = &wal;
  stm::Stm s(stm::Mode::Lazy, opts);
  stm::Var<long> v(0);

  // Healthy first: a strict commit lands.
  std::uint32_t x = 1;
  s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &x, sizeof x); });
  EXPECT_FALSE(wal.failed());

  // Arm the injected ENOSPC: the strict waiter must observe the failure.
  cfs.inject_once({common::FsOp::Write, ENOSPC, false});
  x = 2;
  EXPECT_THROW(
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &x, sizeof x); }),
      stm::WalUnavailable);
  EXPECT_TRUE(wal.failed());
  ASSERT_EQ(seen_count, 1) << "fail-stop: exactly one error report";
  EXPECT_STREQ(seen.op, "write");
  EXPECT_EQ(seen.err, ENOSPC);

  // Read-only durability mode: logging commits are refused up front...
  x = 3;
  EXPECT_THROW(
      s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &x, sizeof x); }),
      stm::WalUnavailable);
  // ...but non-logging transactions (including plain Var writes — no vars
  // are registered here) keep running.
  s.atomically([&](stm::Txn& tx) { v.write(tx, 42); });
  EXPECT_EQ(s.atomically([&](stm::Txn& tx) { return v.read(tx); }), 42);
  EXPECT_GE(wal.stats().errors, 1u);

  // The durable prefix on disk is exactly the pre-failure history.
  // (Recovery runs on the live directory: the failed Wal stopped writing.)
  const std::vector<Rec> recs = recover_all(dir.path);
  ASSERT_EQ(recs.size(), 1u);
  std::uint32_t got;
  std::memcpy(&got, recs[0].data.data(), sizeof got);
  EXPECT_EQ(got, 1u);
}

TEST(WalTest, ErrorReportIsVisibleBeforeAnyWalUnavailable) {
  // Every WalUnavailable — a strict waiter's or a commit refused up front —
  // is thrown only after on_error has returned for the failure, so whoever
  // catches one already sees the report. A slow handler turns any early
  // wake-up or early refusal into a missing report.
  TempDir dir("report-first");
  std::atomic<int> reports{0};
  common::ChaosFs cfs;
  stm::WalOptions wopts;
  wopts.dir = dir.path;
  wopts.fsync_every_n = 1;
  wopts.durability = stm::WalDurability::Strict;
  wopts.on_error = [&](const stm::WalError&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reports.fetch_add(1);
  };
  wopts.fs = &cfs;
  stm::Wal wal(wopts);
  stm::StmOptions opts;
  opts.durability = &wal;
  stm::Stm s(stm::Mode::Lazy, opts);

  const std::uint32_t x = 1;
  s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &x, sizeof x); });
  cfs.inject_once({common::FsOp::Write, ENOSPC, false});

  // Two committers: one is the strict waiter of the failing batch, the
  // other keeps committing until the log refuses it (or its own wait
  // fails). Each records the report count it saw at its throw.
  auto commit_until_unavailable = [&] {
    for (int i = 0; i < 100000; ++i) {
      try {
        s.atomically([&](stm::Txn& tx) { tx.wal_log(1, &x, sizeof x); });
      } catch (const stm::WalUnavailable&) {
        return reports.load();
      }
    }
    return -1;
  };
  int seen_by_helper = -1;
  std::thread helper([&] { seen_by_helper = commit_until_unavailable(); });
  const int seen_by_main = commit_until_unavailable();
  helper.join();

  EXPECT_EQ(seen_by_main, 1) << "WalUnavailable thrown before the report";
  EXPECT_EQ(seen_by_helper, 1) << "WalUnavailable thrown before the report";
  EXPECT_TRUE(wal.failed());
  EXPECT_EQ(reports.load(), 1);
}

namespace {

// --- Hand-crafted segment bytes (stm/wal_format.hpp) for the recovery
// edge-input tests: each shape must yield a clean prefix — never a crash,
// never a double-applied record.

/// One single-record batch per epoch in [first, last]; payload = the epoch
/// as u32, stream 1.
void append_batches(std::vector<std::uint8_t>& seg, std::uint64_t first,
                    std::uint64_t last) {
  namespace wf = stm::walfmt;
  for (std::uint64_t e = first; e <= last; ++e) {
    std::vector<std::uint8_t> payload;
    const std::uint32_t v = static_cast<std::uint32_t>(e);
    wf::put_u64(payload, e);
    wf::put_u32(payload, 1);  // stream
    wf::put_u32(payload, sizeof v);
    wf::put_u32(payload, proust::crc32(&v, sizeof v));
    wf::put_u32(payload, v);
    std::vector<std::uint8_t> hdr;
    wf::put_u32(hdr, wf::kBatchMagic);
    wf::put_u32(hdr, 1);  // n_records
    wf::put_u64(hdr, payload.size());
    wf::put_u64(hdr, e);  // first_epoch
    wf::put_u64(hdr, e);  // last_epoch
    wf::put_u32(hdr, proust::crc32(payload.data(), payload.size()));
    wf::put_u32(hdr, proust::crc32(hdr.data(), 36));
    seg.insert(seg.end(), hdr.begin(), hdr.end());
    seg.insert(seg.end(), payload.begin(), payload.end());
  }
}

std::vector<std::uint8_t> make_segment(std::uint32_t index,
                                       std::uint64_t first,
                                       std::uint64_t last) {
  std::vector<std::uint8_t> seg;
  stm::walfmt::seg_header_bytes(seg, index);
  if (last >= first) append_batches(seg, first, last);
  return seg;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(WalTest, ZeroLengthSegmentStopsTheScanCleanly) {
  TempDir dir("zerolen");
  write_bytes(dir.path + "/" + stm::walfmt::seg_name(0),
              make_segment(0, 1, 6));
  write_bytes(dir.path + "/" + stm::walfmt::seg_name(1), {});  // 0 bytes

  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  ASSERT_EQ(recs.size(), 6u) << "the prefix before the empty file survives";
  EXPECT_EQ(info.last_epoch, 6u);
  EXPECT_TRUE(info.torn_tail) << "an empty segment is a torn rotation";

  // A *lone* zero-length segment is an empty log, not a crash.
  TempDir dir2("zerolen2");
  write_bytes(dir2.path + "/" + stm::walfmt::seg_name(0), {});
  const std::vector<Rec> none = recover_all(dir2.path, &info);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(info.last_epoch, 0u);
}

TEST(WalTest, DuplicateEpochBatchIsTruncatedNeverDoubleApplied) {
  TempDir dir("dupepoch");
  // Epochs 1..4, then a rogue batch re-carrying epochs 3..4 (e.g. a
  // misdirected write replayed by a confused disk): the chain expects 5
  // next, so the duplicate must be cut — recovering it would apply epochs
  // 3 and 4 twice.
  std::vector<std::uint8_t> seg = make_segment(0, 1, 4);
  append_batches(seg, 3, 4);
  write_bytes(dir.path + "/" + stm::walfmt::seg_name(0), seg);

  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].epoch, i + 1) << "each epoch delivered exactly once";
  }
  EXPECT_TRUE(info.torn_tail);
  EXPECT_GT(info.truncated_bytes, 0u);

  // Idempotent: a second recovery sees the already-truncated clean log.
  const std::vector<Rec> again = recover_all(dir.path, &info);
  EXPECT_EQ(again.size(), 4u);
  EXPECT_FALSE(info.torn_tail);
}

TEST(WalTest, ValidHeaderWithBodyTruncatedMidFrameRecoversPrefix) {
  TempDir dir("midframe");
  // Segment with epochs 1..5, then chop the file mid-way through the last
  // batch's payload: its header (including CRCs over the *sealed* content)
  // is intact on disk, but the bytes it promises are not all there.
  std::vector<std::uint8_t> full = make_segment(0, 1, 5);
  const std::vector<std::uint8_t> last_batch = make_segment(0, 5, 5);
  const std::size_t last_len =
      last_batch.size() - stm::walfmt::kSegHeaderSize;
  std::vector<std::uint8_t> cut(full.begin(),
                                full.end() - static_cast<long>(last_len) + 50);
  write_bytes(dir.path + "/" + stm::walfmt::seg_name(0), cut);

  stm::WalRecoveryInfo info;
  const std::vector<Rec> recs = recover_all(dir.path, &info);
  ASSERT_EQ(recs.size(), 4u) << "everything before the torn frame survives";
  EXPECT_EQ(info.last_epoch, 4u);
  EXPECT_TRUE(info.torn_tail);

  const std::vector<Rec> again = recover_all(dir.path, &info);
  EXPECT_EQ(again.size(), 4u);
  EXPECT_FALSE(info.torn_tail) << "truncation must leave a clean log";
}

TEST(WalTest, DurabilityOffLeavesTransactionsUntouched) {
  stm::Stm s(stm::Mode::Lazy, {});
  stm::Var<long> v(0);
  s.atomically([&](stm::Txn& tx) {
    EXPECT_FALSE(tx.wal_enabled());
    // wal_log without a Wal is a no-op, not an error — wrapper layers call
    // it unconditionally.
    const std::uint32_t x = 5;
    tx.wal_log(1, &x, sizeof x);
    v.write(tx, 9);
  });
  EXPECT_EQ(s.atomically([&](stm::Txn& tx) { return v.read(tx); }), 9);
}
