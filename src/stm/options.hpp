// Runtime policy knobs for the STM: the pause between retry attempts (§7's
// livelock study turns on it), the global-version-clock scheme used by the
// commit path, the serializing fallback gate that bounds retries under
// pathological contention, and the progress-watchdog hook.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "stm/fwd.hpp"

namespace proust::stm {

/// Contention management: what a transaction does after an aborted attempt.
/// Conflicts are always resolved requester-aborts, as in classic TL2; the
/// irrevocable fallback gate (StmOptions::fallback_after) is the starvation
/// bound (DESIGN.md §10).
enum class CmPolicy : std::uint8_t {
  /// Randomized exponential backoff (default; what the evaluation uses).
  ExponentialBackoff,
  /// Retry immediately. Maximal livelock exposure; the ablation baseline
  /// that `bench_matrix --preset=cm` measures backoff against.
  None,
};

constexpr const char* to_string(CmPolicy p) noexcept {
  switch (p) {
    case CmPolicy::ExponentialBackoff: return "backoff";
    case CmPolicy::None: return "none";
  }
  return "?";
}

/// How a writing commit obtains its write version `wv` from the STM's global
/// clock (TL2's GV1 and GV5). The clock word is the one cache line every
/// writing commit shares, so the scheme decides how commit throughput scales
/// with thread count; each scheme wins cells the other loses (DESIGN.md §7).
///
/// The `rv + 1 == wv` validation-skip fast path is sound ONLY under
/// IncOnCommit: there every committer increments the clock *after* acquiring
/// its write locks, so `wv == rv + 1` proves no writer overlapped this
/// transaction's reads. Under LazyBump the clock does not tick per commit at
/// all, so it always revalidates the read set.
enum class ClockScheme : std::uint8_t {
  /// GV1 (default): every writing commit does one `fetch_add` on the shared
  /// clock. Keeps the validation-skip fast path and never publishes a
  /// version ahead of the clock, but every commit ping-pongs the clock cache
  /// line.
  IncOnCommit,
  /// GV5: commit at `clock_now() + 1` without writing the clock at all; a
  /// reader that meets a too-new version bumps the clock up to it before
  /// retrying (Stm::clock_catch_up), which bounds the extra aborts this
  /// scheme trades for a write-free commit.
  LazyBump,
};

constexpr const char* to_string(ClockScheme s) noexcept {
  switch (s) {
    case ClockScheme::IncOnCommit: return "IncOnCommit";
    case ClockScheme::LazyBump: return "LazyBump";
  }
  return "?";
}

struct StmOptions {
  CmPolicy cm_policy = CmPolicy::ExponentialBackoff;

  /// Global-clock scheme used by writing commits (see ClockScheme).
  ClockScheme clock_scheme = ClockScheme::IncOnCommit;

  // --- Lock-free optimistic read fast path (DESIGN.md §12) -----------------
  /// Let the Proust wrappers serve read-only operations (get/contains/peek)
  /// without acquiring the abstract lock: the base structure is read under
  /// its own internal synchronization (EBR guard / shard mutex) and the
  /// result is admitted against a per-stripe sequence word that mutators
  /// bump for the duration of their transaction (core/read_seq.hpp), or —
  /// for the lazy wrappers — against the wrapper's commit fence. Admission
  /// records the (word, observed) pair in the txn arena so every later
  /// admission, timestamp extension and the commit itself revalidate it;
  /// any instability or validation miss falls back to the locked slow path,
  /// which preserves opacity unconditionally. Off by default — the locked
  /// read path is then used exclusively and pays one never-taken branch.
  bool optimistic_reads = false;

  /// If nonzero, an atomically() call whose *eligible* attempt count reaches
  /// this threshold re-runs under the STM's exclusive commit gate: no other
  /// transaction can commit while it executes, so its reads cannot be
  /// invalidated and (absent user exceptions) it succeeds. Attempts aborted
  /// by injected chaos faults (AbortReason::ChaosInjected) are NOT eligible —
  /// fault-injection runs must not spuriously serialize the workload.
  /// Ordinary commits take the gate in shared mode with try-lock semantics —
  /// failing the try-lock aborts the ordinary transaction rather than
  /// blocking it while it holds encounter-time locks, which keeps the
  /// protocol deadlock-free — and hold it until the attempt has released
  /// its locks. Under Mode::Lazy the gated attempt therefore meets no orec
  /// lock, so every call finishes within fallback_after + 1 attempts
  /// (DESIGN.md §10 lists the exceptions: encounter-time locks on the eager
  /// modes, pessimistic abstract locks, LazyBump's clock lag). 0 disables
  /// the gate entirely (no per-commit cost).
  unsigned fallback_after = 0;

  /// Budget for one irrevocable fallback attempt (gate-hold duration). The
  /// hold time is always recorded in stats (gate_ns / gate_max_ns); when the
  /// budget is nonzero, an overrunning hold is reported by the watchdog
  /// while it is still in flight. 0 = record but never judge.
  std::chrono::nanoseconds fallback_budget{0};

  /// Invoked by a Watchdog (stm/watchdog.hpp) when it detects a stalled
  /// commit epoch or a gate-budget overrun. Called from the watchdog thread;
  /// must not run transactions on this Stm. Null = report to stderr.
  std::function<void(const StallReport&)> on_stall;

  /// Abstract-lock acquisition timeout used by pessimistic LAPs constructed
  /// without an explicit timeout. Timing out is the runtime's abstract-lock
  /// deadlock recovery: the transaction aborts, releases everything, backs
  /// off and retries. Each registry slot applies a fixed ±25% jitter so
  /// symmetric deadlocks do not abort in lockstep and re-collide; LAPs
  /// constructed with an explicit timeout use it verbatim.
  std::chrono::nanoseconds lap_timeout = std::chrono::milliseconds(2);

  /// Fault-injection policy woven into the runtime (stm/chaos.hpp);
  /// non-owning, must outlive every transaction of this Stm. nullptr
  /// disables injection entirely — the hot paths then cost one predictable
  /// never-taken branch per gate and allocate nothing extra.
  ChaosPolicy* chaos = nullptr;

  /// Opt-in durability: a write-ahead redo log (stm/wal.hpp, DESIGN.md §14)
  /// committing transactions publish their staged redo records to. Same
  /// contract as `chaos`: non-owning, must outlive every transaction of
  /// this Stm, nullptr (default) disables durability entirely — commits
  /// then pay one predictable never-taken branch and Txn::wal_log is a
  /// no-op (`bench_matrix --preset=wal-ab`'s paired A/B pins the
  /// neutrality).
  Wal* durability = nullptr;

  /// What a *failed* log refuses (wal.hpp: a fatal storage error fails the
  /// log permanently). ReadOnlyDurability (default) refuses only commits
  /// that would produce redo records — undeclared-stream mutators keep
  /// running, merely non-durable. FailStop refuses every mutating commit
  /// (writes, replay hooks, or staged records) once the log has failed, so
  /// acked in-memory state can never outrun the durable prefix; read-only
  /// transactions still commit under both policies.
  WalFailMode wal_fail_mode = WalFailMode::ReadOnlyDurability;
};

}  // namespace proust::stm
