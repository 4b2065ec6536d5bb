// Progress watchdog: an optional sentinel thread that watches one Stm for a
// commit epoch that stops advancing while transactions are still active —
// the observable signature of livelock, a wedged irrevocable fallback, or a
// user transaction stuck inside its body. Detection is entirely passive
// (periodic stats snapshots plus the gate's published entry time); nothing
// on the transaction hot path knows the watchdog exists.
//
// Work in flight is read off the same snapshot: an attempt that has begun
// but neither committed nor aborted (starts > commits + aborts), attempt
// starts advancing with no commit landing, or a held fallback gate. On a
// stall the watchdog assembles a StallReport — the counts it judged on, the
// fallback-gate holder if any, and the chaos seed when fault injection is
// active so the hang is replayable — and delivers it to Config::on_stall
// (stderr when unset).
//
// The same reporting channel covers the irrevocable-fallback budget
// (Config::fallback_budget): a gate hold that overruns its budget is
// reported while still in flight, which is what makes a wedged fallback
// transaction diagnosable rather than silent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "stm/fwd.hpp"

namespace proust::stm {

/// What the watchdog saw when it decided to speak up. Delivered on the
/// watchdog thread; handlers must not run transactions on the watched Stm.
struct StallReport {
  enum class Kind : std::uint8_t {
    StalledEpoch,       // commits stopped advancing while work is active
    GateBudgetOverrun,  // an irrevocable fallback exceeded fallback_budget
  };

  Kind kind = Kind::StalledEpoch;
  std::uint64_t stalled_ns = 0;  // stall duration / gate hold so far
  std::uint64_t commits = 0;     // committed attempts at detection time
  std::uint64_t starts = 0;      // begun attempts at detection time
  std::uint64_t in_flight = 0;   // attempts begun but not yet finished
  std::uint64_t chaos_seed = 0;  // replay seed; 0 = no chaos policy active
  unsigned gate_holder = ~0u;    // slot holding the fallback gate, or ~0u

  std::string to_string() const;
};

class Stm;

/// The sentinel thread. Construction starts it; destruction (or stop())
/// joins it. One watchdog per Stm; keep it alive only while worker threads
/// run (it holds a reference to the Stm).
class Watchdog {
 public:
  struct Config {
    /// Snapshot cadence.
    std::chrono::nanoseconds poll = std::chrono::milliseconds(2);
    /// How long the commit count may sit still (with work active) before a
    /// StalledEpoch report fires.
    std::chrono::nanoseconds stall_after = std::chrono::milliseconds(50);
    /// Budget for one irrevocable fallback attempt (StmOptions::
    /// fallback_after): a gate hold still in flight past it is reported as
    /// a GateBudgetOverrun. 0 = never judge.
    std::chrono::nanoseconds fallback_budget{0};
    /// Receives every report, on the watchdog thread; must not run
    /// transactions on the watched Stm. Null = report to stderr.
    std::function<void(const StallReport&)> on_stall;
  };

  explicit Watchdog(Stm& stm);
  Watchdog(Stm& stm, Config cfg);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog();

  /// Idempotent; joins the sentinel thread.
  void stop();

  std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_acquire);
  }
  std::uint64_t budget_overruns() const noexcept {
    return budget_overruns_.load(std::memory_order_acquire);
  }

 private:
  void run();
  void deliver(const StallReport& report);

  Stm& stm_;
  Config cfg_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> budget_overruns_{0};
  std::thread thread_;
};

}  // namespace proust::stm
