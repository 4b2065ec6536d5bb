// Opt-in durability: a per-Stm write-ahead redo log with group commit
// (DESIGN.md §14) and checkpoint/compaction (DESIGN.md §15). The Wal hangs
// off `StmOptions::durability` exactly like the chaos policy hangs off
// `StmOptions::chaos`: a non-owning pointer, nullptr by default, and every
// hot-path touch is one predictable never-taken branch — the paired A/B run
// of `bench_matrix --preset=wal-ab` pins the neutrality.
//
// Model. Transactions stage *logical redo records* while they run: wrapper
// layers log one record per structure operation (put/remove — the same op
// shape as the replay logs in core/replay_log.hpp), and raw `Var`s
// registered with `register_var` are serialized automatically from the
// write set at commit. Staged bytes live in the per-thread TxnArena and die
// with an aborted attempt, so nothing an abort produced can ever reach the
// log. At the commit point — inside the commit-fence bracket, while every
// write lock is still held — the transaction claims a dense *epoch* (one
// fetch_add on the shared counter) and appends its unit to the staging
// buffer of its own ThreadRegistry slot; conflicting transactions hold
// conflicting locks across the claim, so epoch order refines conflict
// order and replaying epochs in order reproduces the committed history.
// Nothing else shared is written inside the lock window: the committer is
// kicked, if it is parked waiting for this epoch, only after the commit has
// released its locks.
//
// A background group committer drains every slot, merges the units by
// epoch and seals the contiguous epoch prefix into checksummed batches
// (CRC32 per record payload, sealed-length + CRC32 header per batch),
// appends them to segment files and fsyncs once per batch. An epoch that is
// claimed but not yet appended is a hole; the committer waits for it, so a
// batch never skips an epoch. `fsync_every_n` / `fsync_interval_us` bound
// how many records and how much time one fsync may cover.
// `WalDurability::Relaxed` acks at publish ("ack on append"); `Strict`
// blocks the committing thread on the durable epoch ("ack on fsync") via a
// futex eventcount.
//
// Failure handling. Every storage syscall on the write path goes through an
// injectable `common::Fs` (so the fault suites can feed it EIO, ENOSPC and
// short writes at the syscall gate) and is classified by a per-errno
// policy: transient errors (EAGAIN/ENOBUFS/ENOMEM by default, overridable
// via `WalOptions::error_policy`) get a bounded retry with exponential
// backoff; everything else — and *always* fsync, whatever the policy says —
// is fatal for the log ("fsyncgate": after a failed fsync the kernel may
// have dropped the dirty pages, so retrying the fsync can report durable
// data that never reached the disk). A fatal error marks the log failed,
// surfaces a WalError through `on_error` (stderr by default), wakes every
// strict waiter (they throw WalUnavailable), and makes every later logging
// commit refuse up front; `StmOptions::wal_fail_mode` chooses whether
// non-logging writers keep running (read-only-durability degradation, the
// default) or every mutating commit is refused too (fail-stop).
//
// Recovery (`Wal::recover`) loads the newest CRC-valid checkpoint (written
// by stm/checkpoint.hpp; older retained checkpoints are the fallback for a
// bit-rotted one), streams its records (state *at* the covering epoch),
// then scans the segment files in order, verifies every checksum, skips
// records the checkpoint subsumes, truncates the torn tail a crash mid-
// append leaves behind, and streams the surviving tail records in epoch
// order — so recovery cost is bounded by live state size plus the
// unretired tail, not history length. `replay_into` does the same against
// *this* instance's registered vars for warm restarts.
//
// The crash-matrix suites (tests/wal_crash_test.cpp and
// tests/wal_checkpoint_crash_test.cpp) drive the WAL and checkpoint chaos
// gates to _exit the process at each of them — under injected storage
// errors too — and prove recovery always yields a prefix of the committed
// history with no acked-strict commit lost and no aborted transaction
// resurrected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/chaos_fs.hpp"
#include "common/fd.hpp"
#include "stm/commit_fence.hpp"
#include "stm/fwd.hpp"
#include "sync/eventcount.hpp"

namespace proust::stm {

/// When `atomically` acks a logging transaction to its caller.
enum class WalDurability : std::uint8_t {
  Relaxed,  // ack once the redo records are published to the group committer
  Strict,   // ack only once the records' batch has been fsync'd
};

constexpr const char* to_string(WalDurability d) noexcept {
  switch (d) {
    case WalDurability::Relaxed: return "relaxed";
    case WalDurability::Strict: return "strict";
  }
  return "?";
}

/// How one failed write/open/rename errno is handled. fsync never consults
/// this — a failed fsync is always fatal for the segment (see header
/// comment).
enum class WalErrorPolicy : std::uint8_t {
  Fatal,  // fail-stop the log immediately
  Retry,  // bounded retry with exponential backoff, then fail-stop
};

/// One I/O failure, delivered to WalOptions::on_error from the committer
/// thread. After the first of these the log is failed for good: once
/// on_error has returned, `Wal::failed()` stays true, strict waiters and
/// logging commits throw WalUnavailable.
struct WalError {
  const char* op;    // "write", "fsync", "rename", "open", "checkpoint"
  int err;           // errno at the failure
  std::string path;  // segment (or directory) involved
};

/// Thrown by logging commits once the log is failed, and by strict waiters
/// whose batch can no longer become durable.
struct WalUnavailable : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Exit code of a chaos-injected WAL/checkpoint crash (ChaosAction::Crash
/// at a WAL gate): the crash-matrix parent uses it to tell an injected kill
/// from an ordinary child failure.
inline constexpr int kWalCrashExitCode = 86;

struct WalOptions {
  /// Segment directory; created (one level) if missing.
  std::string dir;
  /// Rotate to a fresh segment once the current one exceeds this.
  std::size_t segment_bytes = std::size_t{4} << 20;
  /// Group-commit batching: seal + fsync once this many records are
  /// pending, or once the oldest pending record is `fsync_interval_us` old,
  /// whichever comes first.
  unsigned fsync_every_n = 32;
  std::chrono::microseconds fsync_interval_us{200};
  WalDurability durability = WalDurability::Relaxed;
  /// Failure sink (committer thread). Null = report to stderr.
  std::function<void(const WalError&)> on_error;
  /// Fault injection at the WAL gates (crash/delay); non-owning, may be the
  /// same policy the Stm uses. The committer thread draws from its own
  /// registry slot's stream, so decisions stay deterministic per seed.
  ChaosPolicy* chaos = nullptr;
  /// Write-path filesystem; null = real syscalls. The fault suites plug a
  /// common::ChaosFs here. (Recovery reads bypass this — a recovery scan
  /// already treats every malformed byte as a torn tail.)
  common::Fs* fs = nullptr;
  /// Per-errno policy for failed write/open/rename calls. Null = default
  /// table: EAGAIN/ENOBUFS/ENOMEM retry, everything else (EIO, ENOSPC, …)
  /// fatal. fsync failures NEVER consult this (always fatal).
  std::function<WalErrorPolicy(int)> error_policy;
  /// Bounded retry for WalErrorPolicy::Retry: at most `retry_limit`
  /// retries per operation, sleeping retry_backoff * 2^attempt between.
  unsigned retry_limit = 4;
  std::chrono::microseconds retry_backoff{100};
};

struct WalStats {
  std::uint64_t records = 0;     // redo records written to segments
  std::uint64_t bytes = 0;       // payload bytes written
  std::uint64_t batches = 0;     // sealed batches appended
  std::uint64_t fsyncs = 0;      // successful fsyncs
  std::uint64_t rotations = 0;   // segment rotations
  std::uint64_t errors = 0;      // I/O failures observed (fail-stop after 1)
  std::uint64_t retries = 0;     // transient-error retries that were taken
  std::uint64_t segments_retired = 0;  // segments removed by checkpointing
  std::uint64_t published_epoch = 0;   // newest epoch handed out
  std::uint64_t durable_epoch = 0;     // newest fsync-covered epoch
};

/// One recovered redo record, streamed to the recovery handler in epoch
/// order. `data` borrows from the recovery scan buffer — copy to keep.
/// Checkpoint records (`from_checkpoint`) carry the covering epoch and hold
/// *state at* that epoch (absolute values), not an operation to re-apply —
/// handlers replaying delta streams must load them, not fold them.
struct WalRecordView {
  std::uint64_t epoch;
  std::uint32_t stream;
  const std::uint8_t* data;
  std::uint32_t size;
  bool from_checkpoint = false;
};

/// Per-segment summary from a recovery scan (epochs 0/0 for a segment with
/// no complete batch). Feeds the retirement bookkeeping and wal_inspect.
struct WalSegmentDetail {
  std::uint32_t index = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
};

struct WalRecoveryInfo {
  std::uint64_t records = 0;      // tail records delivered (epoch > ckpt)
  std::uint64_t last_epoch = 0;   // 0 = empty log
  std::uint32_t segments = 0;     // valid segments scanned
  bool torn_tail = false;         // a checksum/bounds miss truncated the log
  std::uint64_t truncated_bytes = 0;
  std::uint32_t skipped_tmp = 0;  // half-rotated .tmp files discarded
  // Checkpoint-anchored recovery (DESIGN.md §15):
  std::uint64_t checkpoint_epoch = 0;    // covering epoch loaded (0 = none)
  std::uint64_t checkpoint_records = 0;  // records streamed from it
  std::uint64_t skipped_records = 0;     // valid tail records it subsumed
  std::uint32_t corrupt_checkpoints = 0;  // CRC-invalid ones skipped over
  /// Streams seen across checkpoint + validated tail (bit min(stream, 63);
  /// kVarStream excluded). The checkpointer refuses to subsume streams it
  /// has no snapshotter for.
  std::uint64_t stream_mask = 0;
  std::vector<WalSegmentDetail> segment_details;
};

class Wal {
 public:
  /// Stream id reserved for auto-serialized Var writes (register_var).
  /// Wrapper layers must pick ids below this.
  static constexpr std::uint32_t kVarStream = 0xFFFFFFFFu;

  /// Opens (resuming after any existing valid segments — the torn tail, if
  /// any, is truncated first) and starts the group committer thread.
  explicit Wal(WalOptions opts);
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  /// Drains and fsyncs everything published, then joins the committer.
  ~Wal();

  const WalOptions& options() const noexcept { return opts_; }
  common::Fs& fs() const noexcept { return *fs_; }

  /// Append one staged record to a transaction's staging buffer
  /// ([stream u32][len u32][payload]). Pure byte bookkeeping — no lock, no
  /// epoch; Txn::wal_log calls this into the arena buffer.
  static void stage_record(std::vector<std::uint8_t>& buf, std::uint32_t stream,
                           const void* data, std::size_t n);
  /// As above for an auto-serialized Var write: payload is [var id u64]
  /// followed by the value bytes, under stream kVarStream.
  static void stage_var_record(std::vector<std::uint8_t>& buf,
                               std::uint64_t var_id, const void* value,
                               std::size_t n);
  /// Decode a kVarStream record produced by stage_var_record. Returns false
  /// (and touches nothing) for records of any other stream or a short
  /// payload.
  static bool decode_var_record(const WalRecordView& r, std::uint64_t& var_id,
                                const std::uint8_t*& value,
                                std::uint32_t& size) noexcept;

  /// Publish one committed transaction's staged records (the arena buffer
  /// built by stage_record): claim its epoch and append the unit to the
  /// staging buffer of registry slot `slot` (the calling thread's). Called
  /// by Txn at the commit point with every write lock held — that lock
  /// order is what makes epoch order a linearization of conflicting
  /// commits. Never blocks on I/O and wakes nobody: call kick() once the
  /// locks are released.
  std::uint64_t publish(unsigned slot, const std::uint8_t* staged,
                        std::size_t bytes, std::uint32_t records);

  /// Wake the group committer if it is parked waiting for `epoch` (the one
  /// publish returned). Txn::commit calls this after releasing its locks;
  /// every other publisher pays one load.
  void kick(std::uint64_t epoch) noexcept {
    std::uint64_t at = kick_at_.load(std::memory_order_seq_cst);
    while (epoch >= at) {
      if (kick_at_.compare_exchange_weak(at, kNoKick,
                                         std::memory_order_seq_cst)) {
        kick_ns_.store(
            std::chrono::steady_clock::now().time_since_epoch().count(),
            std::memory_order_relaxed);
        work_ec_.notify_all();
        return;
      }
    }
  }

  /// Block until `epoch` is fsync-covered (strict durability ack). Throws
  /// WalUnavailable if the log failed before covering it.
  void wait_durable(std::uint64_t epoch);

  /// Publish-side barrier: wait until everything published so far is
  /// durable. Throws WalUnavailable on a failed log.
  void flush();

  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }
  std::uint64_t durable_epoch() const noexcept {
    return durable_epoch_.load(std::memory_order_acquire);
  }
  /// Newest epoch handed out by this instance; 0 until its first publish
  /// (epochs recovered from an earlier instance's history do not count).
  std::uint64_t published_epoch() const noexcept {
    const std::uint64_t e = next_epoch_.load(std::memory_order_acquire) - 1;
    return e > resume_epoch_ ? e : 0;
  }

  WalStats stats() const noexcept;

  // --- Raw-var redo logging ----------------------------------------------
  /// Register a Var for automatic redo logging: every committing write to
  /// it is serialized (under kVarStream, keyed by `id`) with no wrapper
  /// code. Ids must be unique per Wal and stable across restarts — they are
  /// how recovery finds the var again. Register during setup, before
  /// transactions run; the directory is read locklessly on the commit path.
  void register_var(std::uint64_t id, const VarBase& var);
  bool has_vars() const noexcept { return !var_ids_.empty(); }
  /// Commit-path lookup: the registered id of `var`, or false.
  bool var_id(const VarBase* var, std::uint64_t& id) const noexcept;
  /// Setup-time directory of registered vars (the checkpointer iterates it
  /// to snapshot live state).
  const std::unordered_map<const VarBase*, std::uint64_t>& registered_vars()
      const noexcept {
    return var_ids_;
  }

  // --- Checkpoint support (stm/checkpoint.hpp) ---------------------------
  /// Fence bracketing every commit that may publish to this log, across
  /// [wv generation .. write-back complete]. The checkpointer's consistent
  /// cut requires it quiescent before and unchanged after the snapshot, so
  /// a quiescent observation pairs the snapshot values with
  /// published_epoch() exactly.
  CommitFence& checkpoint_fence() noexcept { return ckpt_fence_; }
  /// Mask bit for one wrapper stream id (streams >= 63 share bit 63, so
  /// checkpoint coverage bookkeeping needs wrapper streams below 63).
  static constexpr std::uint64_t stream_bit(std::uint32_t stream) noexcept {
    return 1ull << (stream < 63 ? stream : 63);
  }
  /// Non-kVarStream streams this log has ever carried (stream_bit each),
  /// merged across on-disk history and this run's published records.
  std::uint64_t observed_stream_mask() const noexcept {
    return stream_mask_.load(std::memory_order_relaxed);
  }
  /// Remove sealed segments wholly subsumed by a durable checkpoint at
  /// `covered_epoch` (segment last_epoch <= covered_epoch; the live segment
  /// is never touched). Returns the number unlinked. Called by the
  /// checkpointer after its rename+dir-fsync.
  std::uint32_t retire_segments(std::uint64_t covered_epoch);

  /// Scan `dir`: load the newest CRC-valid checkpoint (falling back over
  /// corrupt ones), stream its records (from_checkpoint=true), then
  /// validate every segment batch/record checksum, truncate the torn tail
  /// (and drop half-rotated .tmp files), skip tail records the checkpoint
  /// subsumes, and stream the surviving records to `handler` in epoch
  /// order. Safe on an empty or missing directory (returns an empty info).
  /// Static — runs against a directory no live Wal owns.
  static WalRecoveryInfo recover(
      const std::string& dir,
      const std::function<void(const WalRecordView&)>& handler);

  /// Warm restart: recover this instance's directory *into its live
  /// registered vars* — kVarStream records whose id is registered here are
  /// applied via VarBase::unsafe_restore; everything else streams to
  /// `handler` (wrapper streams). Quiescent only: call after construction
  /// and registration, before transactions run.
  WalRecoveryInfo replay_into(
      const std::function<void(const WalRecordView&)>& handler = {});

 private:
  /// A sealed unit, read in place from the committer's drained buffers.
  struct UnitRef {
    std::uint32_t slot;
    std::size_t offset;
  };
  struct Batch {
    std::vector<UnitRef> units;  // epoch order
    std::uint32_t records = 0;
    std::uint64_t first_epoch = 0;
    std::uint64_t last_epoch = 0;
  };
  /// One registry slot's staging buffer. Its thread appends whole units in
  /// epoch order while holding `busy`; the committer takes `busy` only to
  /// swap the buffer out, so the line stays with its thread between drains.
  struct alignas(kCacheLine) StagingSlot {
    std::atomic<bool> busy{false};
    std::atomic<std::uint32_t> records{0};  // staged since the last drain
    std::vector<std::uint8_t> units;
  };
  /// Committer-side units drained from one slot; `pos` is the first unit
  /// not yet sealed into a batch (units claimed after a seal's cut wait
  /// here for the next batch). Drains only append, so a sealed unit stays
  /// put until its batch is written.
  struct Drained {
    std::vector<std::uint8_t> units;
    std::size_t pos = 0;
  };
  static constexpr std::uint64_t kNoKick = ~std::uint64_t{0};

  std::uint64_t claimed_epoch() const noexcept {
    return next_epoch_.load(std::memory_order_seq_cst) - 1;
  }
  void committer_main();
  /// Park until the committer has something to seal; false once stopped
  /// with every claimed epoch sealed.
  bool wait_for_work();
  /// Batching window: drain until `fsync_every_n` records are pending or
  /// the interval since the batch's first publish has passed.
  void wait_for_batch();
  void drain_slots();
  /// Merge every claimed epoch past the sealed prefix into batch_, waiting
  /// out holes, then re-arm the first-publish kick for the next batch.
  void seal_batch();
  bool seal_unit(std::uint64_t epoch);
  void write_batch(const Batch& b);
  /// Drop the written units from the drained buffers.
  void release_written();
  void open_fresh_segment();           // ctor path (no chaos, throws)
  bool rotate_segment();               // committer path (fail-stop on error)
  void fail(const char* op, int err, const std::string& path);
  /// Write all of [data, data+n) through fs_, absorbing EINTR and short
  /// writes, retrying transient errnos per the policy (bounded), and
  /// fail-stopping on anything else. False once the log failed.
  bool write_all(int fd, const void* data, std::size_t n,
                 const std::string& path);
  WalErrorPolicy classify(int err) const noexcept;
  void retry_backoff_sleep(unsigned attempt) noexcept;
  /// Draw at a WAL gate: Crash returns true (caller performs the kill so
  /// WalAppend can tear the write first), Delay/Abort/Timeout coerce to an
  /// injected delay, None is free.
  bool chaos_crash(ChaosPoint p) noexcept;

  WalOptions opts_;
  common::Fs* fs_ = nullptr;
  common::UniqueFd fd_;      // current segment
  common::UniqueFd dir_fd_;  // directory handle, fsync'd after create/rename
  std::uint32_t seg_index_ = 0;
  std::size_t seg_bytes_ = 0;  // bytes appended to the current segment
  std::string seg_path_;
  // Current segment's epoch coverage (committer thread only); snapshotted
  // into sealed_ at rotation so retirement knows what each file holds.
  std::uint64_t seg_first_epoch_ = 0;
  std::uint64_t seg_last_epoch_ = 0;

  // Publisher side. next_epoch_ takes the one shared RMW of a logging
  // commit and sits alone on its line. The next line is read by every
  // logging commit and written about twice per batch (the committer arms a
  // kick, one publisher claims it).
  alignas(kCacheLine) std::atomic<std::uint64_t> next_epoch_{1};
  alignas(kCacheLine) std::atomic<std::uint64_t> kick_at_{kNoKick};
  std::atomic<std::chrono::steady_clock::rep> kick_ns_{0};  // kicker's clock
  std::unique_ptr<StagingSlot[]> slots_;
  std::uint64_t resume_epoch_ = 0;  // newest epoch of the recovered history
  std::atomic<bool> stop_{false};

  // Committer thread only (buffers keep their capacity across batches, up
  // to a bound; see release_written).
  alignas(kCacheLine) std::uint64_t sealed_epoch_ = 0;  // newest sealed epoch
  std::uint64_t drained_records_ = 0;  // drained, not yet sealed
  std::uint32_t records_per_unit_ = 1;  // last batch's average, for kick_at_
  std::vector<Drained> drained_;
  Batch batch_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> header_;

  alignas(kCacheLine) std::atomic<std::uint64_t> durable_epoch_{0};
  // `failing_` is claimed by the first fatal error and stops the committer
  // writing; `failed_` (what failed() reports) is set only after on_error
  // has returned, so no WalUnavailable can overtake the error report.
  std::atomic<bool> failing_{false};
  std::atomic<bool> failed_{false};
  sync::EventCount work_ec_;     // producer -> committer
  sync::EventCount durable_ec_;  // committer -> strict waiters

  // Committer-side counters; single writer, racy-read tolerant (stats()).
  std::atomic<std::uint64_t> n_records_{0};
  std::atomic<std::uint64_t> n_bytes_{0};
  std::atomic<std::uint64_t> n_batches_{0};
  std::atomic<std::uint64_t> n_fsyncs_{0};
  std::atomic<std::uint64_t> n_rotations_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_retries_{0};
  std::atomic<std::uint64_t> n_segments_retired_{0};

  /// Registered raw vars (setup-time writes only; lock-free commit reads).
  std::unordered_map<const VarBase*, std::uint64_t> var_ids_;

  CommitFence ckpt_fence_;
  std::atomic<std::uint64_t> stream_mask_{0};
  /// Sealed (never-again-written) segments on disk, oldest first.
  std::mutex seg_mu_;
  std::vector<WalSegmentDetail> sealed_;

  std::thread committer_;
};

}  // namespace proust::stm
