// Per-STM statistics: padded per-thread-slot counters, aggregated on demand.
// The benchmark harness reports commit/abort/false-conflict rates from these.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "stm/fwd.hpp"
#include "stm/thread_registry.hpp"

namespace proust::stm {

/// Buckets of the per-call attempt histogram: exact for 1..16 attempts
/// (buckets 0..15), then power-of-two ranges (bucket 16 = 17..32,
/// 17 = 33..64, ...) up to a catch-all tail. Retry distributions are
/// heavy-tailed, so the exact low buckets carry the p50 and the log tail
/// carries the p99/max story.
inline constexpr std::size_t kAttemptBuckets = 32;

constexpr std::size_t attempt_bucket(std::uint64_t attempts) noexcept {
  if (attempts == 0) attempts = 1;
  if (attempts <= 16) return attempts - 1;
  const std::size_t b = 16 + std::bit_width(attempts - 1) - 5;
  return b < kAttemptBuckets ? b : kAttemptBuckets - 1;
}

/// Inclusive upper bound of a histogram bucket (for percentile reporting).
constexpr std::uint64_t attempt_bucket_bound(std::size_t bucket) noexcept {
  return bucket < 16 ? bucket + 1 : std::uint64_t{32} << (bucket - 16);
}

struct StatsSnapshot {
  std::uint64_t starts = 0;     // transaction attempts begun
  std::uint64_t commits = 0;    // attempts committed
  std::uint64_t reads = 0;      // transactional reads
  std::uint64_t writes = 0;     // transactional writes
  std::uint64_t extensions = 0; // successful timestamp extensions
  std::array<std::uint64_t, static_cast<std::size_t>(AbortReason::kCount)>
      aborts{};
  /// Chaos faults injected at transaction-level points (stm/chaos.hpp).
  /// Sync-layer LockTransition injections have no transaction context and
  /// are counted by the ChaosPolicy itself; their entry here stays zero.
  std::array<std::uint64_t, kNumChaosPoints> injected{};

  /// Attempts-per-atomically-call histogram (see attempt_bucket) and the
  /// exact worst case. One histogram entry per *call*, not per attempt.
  std::array<std::uint64_t, kAttemptBuckets> attempts_hist{};
  std::uint64_t max_attempts = 0;

  /// Cumulative inter-attempt backoff pause time, in nanoseconds.
  std::uint64_t backoff_ns = 0;

  /// Irrevocable-fallback gate holds: count, total and worst hold time.
  std::uint64_t gate_holds = 0;
  std::uint64_t gate_ns = 0;
  std::uint64_t gate_max_ns = 0;

  /// Guarded reads (DESIGN.md §12): wrapper reads served without the
  /// abstract lock, validated against their CA slot's orec.
  std::uint64_t fastpath_hits = 0;

  /// Durability (DESIGN.md §14): commits that published redo records to the
  /// WAL, records/bytes staged, and time strict commits spent blocked on the
  /// group committer's fsync acknowledgement.
  std::uint64_t wal_publishes = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_strict_waits = 0;
  std::uint64_t wal_wait_ns = 0;
  /// Commits refused because the log had failed (WalUnavailable thrown
  /// before any lock was taken — StmOptions::wal_fail_mode).
  std::uint64_t wal_refused = 0;

  std::uint64_t total_aborts() const noexcept;
  std::uint64_t total_injected() const noexcept;
  double abort_ratio() const noexcept;  // aborts / starts
  std::uint64_t total_calls() const noexcept;  // histogram mass
  /// Upper bound of the bucket holding percentile `p` (0..1) of the
  /// attempts-per-call distribution (exact below 17 attempts; the top
  /// bucket reports max_attempts). 0 when no calls were recorded.
  std::uint64_t attempts_percentile(double p) const noexcept;
  std::string to_string() const;
};

class Stats {
  struct alignas(kCacheLine) Cell {
    std::uint64_t starts = 0;
    std::uint64_t commits = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t extensions = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(AbortReason::kCount)>
        aborts{};
    std::array<std::uint64_t, kNumChaosPoints> injected{};
    std::array<std::uint64_t, kAttemptBuckets> attempts_hist{};
    std::uint64_t max_attempts = 0;
    std::uint64_t backoff_ns = 0;
    std::uint64_t gate_holds = 0;
    std::uint64_t gate_ns = 0;
    std::uint64_t gate_max_ns = 0;
    std::uint64_t fastpath_hits = 0;
    std::uint64_t wal_publishes = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t wal_strict_waits = 0;
    std::uint64_t wal_wait_ns = 0;
    std::uint64_t wal_refused = 0;
  };

  // Each cell has exactly one writer (its owning slot's thread), but the
  // watchdog aggregates snapshot() while workers are still running. Relaxed
  // atomic_ref load/store pairs keep the single-writer increments tear-free
  // for a concurrent reader without an RMW: both sides compile to plain
  // moves on x86-64, so the hot-path cost is unchanged.
  static std::uint64_t ld(const std::uint64_t& v) noexcept {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(v))
        .load(std::memory_order_relaxed);
  }
  static void st(std::uint64_t& v, std::uint64_t x) noexcept {
    std::atomic_ref<std::uint64_t>(v).store(x, std::memory_order_relaxed);
  }
  static void bump(std::uint64_t& v, std::uint64_t d = 1) noexcept {
    st(v, ld(v) + d);
  }

 public:
  /// A resolved pointer to one thread slot's padded counter cell. Txn caches
  /// one at construction so per-read/per-write accounting is a single
  /// increment instead of a ThreadRegistry::slot() TLS lookup per event.
  class Counters {
   public:
    void count_start() noexcept { bump(c_->starts); }
    void count_commit() noexcept { bump(c_->commits); }
    void count_read() noexcept { bump(c_->reads); }
    void count_write() noexcept { bump(c_->writes); }
    void count_extension() noexcept { bump(c_->extensions); }
    void count_abort(AbortReason r) noexcept {
      bump(c_->aborts[static_cast<std::size_t>(r)]);
    }
    void count_injected(ChaosPoint p) noexcept {
      bump(c_->injected[static_cast<std::size_t>(p)]);
    }
    /// One finished atomically() call that needed `attempts` attempts.
    void count_call(std::uint64_t attempts) noexcept {
      bump(c_->attempts_hist[attempt_bucket(attempts)]);
      if (attempts > ld(c_->max_attempts)) st(c_->max_attempts, attempts);
    }
    void count_backoff_ns(std::uint64_t ns) noexcept {
      bump(c_->backoff_ns, ns);
    }
    void count_gate_hold_ns(std::uint64_t ns) noexcept {
      bump(c_->gate_holds);
      bump(c_->gate_ns, ns);
      if (ns > ld(c_->gate_max_ns)) st(c_->gate_max_ns, ns);
    }
    void count_fastpath_hit() noexcept { bump(c_->fastpath_hits); }
    /// One commit that published `records` redo records (`bytes` staged
    /// payload incl. per-record framing) to the WAL.
    void count_wal_publish(std::uint64_t records, std::uint64_t bytes) noexcept {
      bump(c_->wal_publishes);
      bump(c_->wal_records, records);
      bump(c_->wal_bytes, bytes);
    }
    /// One strict commit that blocked `ns` on the durable-epoch wait.
    void count_wal_wait_ns(std::uint64_t ns) noexcept {
      bump(c_->wal_strict_waits);
      bump(c_->wal_wait_ns, ns);
    }
    /// One commit refused because the log had failed (wal_fail_mode).
    void count_wal_refused() noexcept { bump(c_->wal_refused); }

   private:
    friend class Stats;
    explicit Counters(Cell* c) noexcept : c_(c) {}
    Cell* c_;
  };

  /// Counter handle for a specific registry slot (must be the caller's own).
  Counters counters(unsigned slot) noexcept { return Counters(&cells_[slot]); }

  StatsSnapshot snapshot() const;
  void reset();

 private:
  std::array<Cell, ThreadRegistry::kMaxSlots> cells_{};
};

}  // namespace proust::stm
