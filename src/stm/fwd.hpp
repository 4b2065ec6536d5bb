// Forward declarations and small shared vocabulary types for the STM.
#pragma once

#include <cstddef>
#include <cstdint>

namespace proust::stm {

/// Monotone version timestamps drawn from a per-STM global clock.
using Version = std::uint64_t;

/// Destructive-interference granularity used to pad per-thread cells and
/// transactional variables so adjacent instances never share a cache line.
inline constexpr std::size_t kCacheLine = 64;

class Stm;
class Txn;
class VarBase;
class ChaosPolicy;
class CommitFence;
class Wal;

/// StmOptions::wal_fail_mode — what a permanently-failed log refuses (see
/// options.hpp for the full contract).
enum class WalFailMode : std::uint8_t {
  ReadOnlyDurability,  // refuse only commits that would log redo records
  FailStop,            // refuse every mutating commit once the log failed
};

/// How the STM detects conflicts — the right-hand table of the paper's
/// Figure 1. The mode is a property of the `Stm` runtime instance.
enum class Mode {
  /// TL2-style: commit-time (lazy) write locking, lazy read validation.
  /// Lazy r/w + lazy w/w detection.
  Lazy,
  /// TinySTM-style write-through: encounter-time write locking (eager w/w),
  /// timestamp-extension reads (r/w conflicts surface late — lazy r/w).
  EagerWrite,
  /// Encounter-time write locking plus visible readers: both r/w and w/w
  /// conflicts are detected eagerly. This is the STM class required by
  /// Theorem 5.2 for Eager/Optimistic Proust to be opaque.
  EagerAll,
};

constexpr const char* to_string(Mode m) noexcept {
  switch (m) {
    case Mode::Lazy: return "Lazy";
    case Mode::EagerWrite: return "EagerWrite";
    case Mode::EagerAll: return "EagerAll";
  }
  return "?";
}

/// Why a transaction attempt ended.
enum class Outcome { Committed, Aborted };

/// Fine-grained abort reasons, kept for the statistics the benchmarks report.
enum class AbortReason : std::uint8_t {
  None = 0,
  ReadLocked,        // read encountered a foreign write lock
  ReadVersion,       // read saw a version newer than the snapshot
  ValidationFailed,  // commit/extension-time read-set validation failed
  WriteLocked,       // write-lock acquisition found a foreign owner
  VisibleReader,     // eager-all writer yielded to visible readers
  AbstractLockTimeout,  // pessimistic LAP gave up waiting for an abstract lock
  FallbackGate,      // commit yielded to an in-flight irrevocable fallback
  Explicit,          // user called Txn::abort()
  ChaosInjected,     // spurious abort injected by the chaos policy
  kCount,
};

constexpr const char* to_string(AbortReason r) noexcept {
  switch (r) {
    case AbortReason::None: return "none";
    case AbortReason::ReadLocked: return "read-locked";
    case AbortReason::ReadVersion: return "read-version";
    case AbortReason::ValidationFailed: return "validation";
    case AbortReason::WriteLocked: return "write-locked";
    case AbortReason::VisibleReader: return "visible-reader";
    case AbortReason::AbstractLockTimeout: return "abstract-lock-timeout";
    case AbortReason::FallbackGate: return "fallback-gate";
    case AbortReason::Explicit: return "explicit";
    case AbortReason::ChaosInjected: return "chaos-injected";
    default: return "?";
  }
}

/// Where the fault-injection layer (stm/chaos.hpp) can perturb an attempt.
/// Every failure path Theorems 5.1/5.2 rely on sits behind one of these
/// gates, so the chaos suite can manufacture the adversity that normally
/// needs an unlucky scheduler.
enum class ChaosPoint : std::uint8_t {
  TxnRead = 0,     // transactional read / conflict-abstraction read-back
  TxnValidate,     // read-set validation & timestamp extension
  CommitLock,      // write-lock acquisition (commit-time or encounter-time)
  WvPublish,       // after wv generation, before the commit point
  LapAcquire,      // pessimistic abstract-lock acquisition (core/lap.hpp)
  LockTransition,  // reentrant-RW-lock CAS/park transitions (sync layer)
  ReplayApply,     // replay-log application (commit-locked hooks)
  // WAL gates (stm/wal.hpp). These run on the group-committer thread; a
  // Crash draw _exit()s the process there, which is how the crash-matrix
  // suite manufactures torn appends, unsealed batches, lost fsyncs and
  // half-finished segment rotations.
  WalAppend,       // batch write(2) — a crash here leaves a torn tail
  WalSeal,         // after the batch is drained, before its header is written
  WalFsync,        // after write, before fsync — acked-relaxed data at risk
  WalRotate,       // between tmp-segment creation and its rename
  // Checkpoint gates (stm/checkpoint.hpp). These run on the checkpointer
  // thread; a Crash draw _exit()s there, so the extended crash matrix can
  // kill the process at every step of the write-tmp/fsync/rename/retire
  // protocol and prove recovery still yields a committed prefix.
  CkptBegin,       // before the consistent cut is taken
  CkptWrite,       // checkpoint tmp write(2) — a crash here tears the tmp
  CkptFsync,       // after the tmp is written, before its fsync
  CkptRename,      // between the tmp fsync and the rename into place
  CkptRetire,      // checkpoint durable, before subsumed segments retire
  kCount,
};

inline constexpr std::size_t kNumChaosPoints =
    static_cast<std::size_t>(ChaosPoint::kCount);

constexpr const char* to_string(ChaosPoint p) noexcept {
  switch (p) {
    case ChaosPoint::TxnRead: return "txn-read";
    case ChaosPoint::TxnValidate: return "txn-validate";
    case ChaosPoint::CommitLock: return "commit-lock";
    case ChaosPoint::WvPublish: return "wv-publish";
    case ChaosPoint::LapAcquire: return "lap-acquire";
    case ChaosPoint::LockTransition: return "lock-transition";
    case ChaosPoint::ReplayApply: return "replay-apply";
    case ChaosPoint::WalAppend: return "wal-append";
    case ChaosPoint::WalSeal: return "wal-seal";
    case ChaosPoint::WalFsync: return "wal-fsync";
    case ChaosPoint::WalRotate: return "wal-rotate";
    case ChaosPoint::CkptBegin: return "ckpt-begin";
    case ChaosPoint::CkptWrite: return "ckpt-write";
    case ChaosPoint::CkptFsync: return "ckpt-fsync";
    case ChaosPoint::CkptRename: return "ckpt-rename";
    case ChaosPoint::CkptRetire: return "ckpt-retire";
    default: return "?";
  }
}

/// Control-flow exception thrown to unwind an attempt that must retry.
/// User code must be exception-safe through transactional regions (RAII);
/// catching this type in user code and not rethrowing is a bug.
struct ConflictAbort {
  AbortReason reason;
};

}  // namespace proust::stm
