// Runtime policy knobs for the STM: the pause between retry attempts (§7's
// livelock study turns on it), the serializing fallback gate that bounds
// retries under pathological contention, fault injection and durability.
#pragma once

#include <chrono>
#include <cstdint>

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

struct StmOptions {
  CmPolicy cm_policy = CmPolicy::ExponentialBackoff;

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
  /// modes and pessimistic abstract locks). 0 disables the gate entirely (no
  /// per-commit cost). Hold times are recorded in stats (gate_ns /
  /// gate_max_ns); Watchdog::Config::fallback_budget judges them in flight.
  unsigned fallback_after = 0;

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
