#include "stm/watchdog.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "stm/chaos.hpp"
#include "stm/stm.hpp"

namespace proust::stm {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string StallReport::to_string() const {
  std::ostringstream os;
  os << (kind == Kind::StalledEpoch ? "stalled-epoch" : "gate-budget-overrun")
     << " stalled_ns=" << stalled_ns << " commits=" << commits
     << " starts=" << starts << " in_flight=" << in_flight;
  if (chaos_seed != 0) os << " chaos_seed=" << chaos_seed;
  if (gate_holder != ~0u) os << " gate_holder=" << gate_holder;
  return os.str();
}

Watchdog::Watchdog(Stm& stm) : Watchdog(stm, Config{}) {}

Watchdog::Watchdog(Stm& stm, Config cfg) : stm_(stm), cfg_(std::move(cfg)) {
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
}

void Watchdog::deliver(const StallReport& report) {
  if (cfg_.on_stall) {
    cfg_.on_stall(report);
  } else {
    std::fprintf(stderr, "[proust watchdog] %s\n", report.to_string().c_str());
  }
}

void Watchdog::run() {
  std::uint64_t last_commits = stm_.stats().snapshot().commits;
  std::uint64_t last_starts = stm_.stats().snapshot().starts;
  std::uint64_t stable_since = now_ns();
  // One report per distinct gate hold: remember the hold we last flagged.
  std::uint64_t reported_gate_t0 = 0;

  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(cfg_.poll);
    const std::uint64_t now = now_ns();
    const StatsSnapshot snap = stm_.stats().snapshot();

    // --- Fallback-gate budget -------------------------------------------
    const auto budget = cfg_.fallback_budget;
    const std::uint64_t gate_t0 = stm_.gate_entered_ns();
    if (budget.count() > 0 && gate_t0 != 0 && gate_t0 != reported_gate_t0 &&
        now > gate_t0 &&
        now - gate_t0 > static_cast<std::uint64_t>(budget.count())) {
      reported_gate_t0 = gate_t0;
      budget_overruns_.fetch_add(1, std::memory_order_acq_rel);
      StallReport r;
      r.kind = StallReport::Kind::GateBudgetOverrun;
      r.stalled_ns = now - gate_t0;
      r.commits = snap.commits;
      r.starts = snap.starts;
      r.gate_holder = stm_.gate_holder();
      if (const ChaosPolicy* c = stm_.options().chaos) r.chaos_seed = c->seed();
      deliver(r);
    }

    // --- Commit-epoch advance -------------------------------------------
    if (snap.commits != last_commits) {
      last_commits = snap.commits;
      last_starts = snap.starts;
      stable_since = now;
      continue;
    }

    // Epoch is flat. Is anyone actually trying? An attempt in flight (begun,
    // neither committed nor aborted — a body stuck inside one call), attempt
    // starts advancing with zero commits landing (livelock), or a held gate.
    // The counters are loaded one by one, so a snapshot racing a short
    // attempt may count its outcome but not its start; that reads as zero.
    const std::uint64_t ended = snap.commits + snap.total_aborts();
    const std::uint64_t in_flight = snap.starts > ended ? snap.starts - ended : 0;
    const bool working =
        in_flight != 0 || snap.starts != last_starts || gate_t0 != 0;
    last_starts = snap.starts;
    if (!working) {
      stable_since = now;  // genuinely idle, not stalled
      continue;
    }
    if (now - stable_since <
        static_cast<std::uint64_t>(cfg_.stall_after.count())) {
      continue;
    }

    stalls_.fetch_add(1, std::memory_order_acq_rel);
    StallReport r;
    r.kind = StallReport::Kind::StalledEpoch;
    r.stalled_ns = now - stable_since;
    r.commits = snap.commits;
    r.starts = snap.starts;
    r.in_flight = in_flight;
    if (gate_t0 != 0) r.gate_holder = stm_.gate_holder();
    if (const ChaosPolicy* c = stm_.options().chaos) r.chaos_seed = c->seed();
    deliver(r);
    stable_since = now;  // re-arm; re-fires after another stall_after
  }
}

}  // namespace proust::stm
