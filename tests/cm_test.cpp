// Contention-management tests (ctest label "cm"): the per-call attempt
// histogram, fallback-gate eligibility and its hard attempt bound, and the
// progress watchdog — plus the starvation regression the gate exists for: a
// long read-mostly transaction racing a swarm of small writers completes
// within fallback_after + 1 attempts on the Lazy STM under either
// inter-attempt policy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "stm/stats.hpp"
#include "stm/stm.hpp"
#include "stm/watchdog.hpp"

using namespace proust::stm;

// --- Attempt histogram -------------------------------------------------------

TEST(AttemptHistogramTest, BucketMappingIsExactThenLogarithmic) {
  // 1..16 attempts map to exact buckets 0..15.
  for (std::uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(attempt_bucket(n), n - 1) << n;
    EXPECT_EQ(attempt_bucket_bound(attempt_bucket(n)), n) << n;
  }
  // Then power-of-two ranges: 17..32 share a bucket bounded by 32, etc.
  EXPECT_EQ(attempt_bucket(17), attempt_bucket(32));
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(17)), 32u);
  EXPECT_NE(attempt_bucket(32), attempt_bucket(33));
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(33)), 64u);
  EXPECT_EQ(attempt_bucket_bound(attempt_bucket(64)), 64u);
  // Zero is clamped to one attempt; huge counts land in the tail bucket.
  EXPECT_EQ(attempt_bucket(0), 0u);
  EXPECT_EQ(attempt_bucket(~std::uint64_t{0}), kAttemptBuckets - 1);
  // Bucket bounds are monotone, so percentile walks are well ordered.
  for (std::size_t b = 1; b < kAttemptBuckets; ++b) {
    EXPECT_GT(attempt_bucket_bound(b), attempt_bucket_bound(b - 1));
  }
}

TEST(AttemptHistogramTest, PercentilesWalkTheBuckets) {
  StatsSnapshot s;
  EXPECT_EQ(s.attempts_percentile(0.50), 0u);  // no calls recorded

  // 90 one-attempt calls, 10 four-attempt calls.
  s.attempts_hist[attempt_bucket(1)] = 90;
  s.attempts_hist[attempt_bucket(4)] = 10;
  s.max_attempts = 4;
  EXPECT_EQ(s.total_calls(), 100u);
  EXPECT_EQ(s.attempts_percentile(0.50), 1u);
  EXPECT_EQ(s.attempts_percentile(0.99), 4u);
  EXPECT_EQ(s.attempts_percentile(1.0), 4u);
}

TEST(AttemptHistogramTest, TopBucketClampsToObservedMax) {
  // One call in the 17..32 range: the bucket bound (32) must not overstate
  // the observed worst case.
  StatsSnapshot s;
  s.attempts_hist[attempt_bucket(20)] = 1;
  s.max_attempts = 20;
  EXPECT_EQ(s.attempts_percentile(1.0), 20u);
}

TEST(AttemptHistogramTest, SingleThreadedCallsLandInTheHistogram) {
  Stm stm(Mode::Lazy);
  Var<long> v(0);
  // Three clean calls, then one call that needs three attempts.
  for (int i = 0; i < 3; ++i) {
    stm.atomically([&](Txn& tx) { tx.write(v, i); });
  }
  stm.atomically([&](Txn& tx) {
    tx.write(v, 99);
    if (tx.attempt() < 3) tx.retry(AbortReason::Explicit);
  });
  const StatsSnapshot s = stm.stats().snapshot();
  EXPECT_EQ(s.total_calls(), 4u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(1)], 3u);
  EXPECT_EQ(s.attempts_hist[attempt_bucket(3)], 1u);
  EXPECT_EQ(s.max_attempts, 3u);
  EXPECT_EQ(s.attempts_percentile(0.50), 1u);
  EXPECT_EQ(s.attempts_percentile(1.0), 3u);
  // The retried call paused between attempts; the backoff time is recorded.
  EXPECT_GT(s.backoff_ns, 0u);
}

// --- Fallback eligibility and gate budget ------------------------------------

TEST(FallbackEligibilityTest, ChaosInjectedAbortsDoNotArmTheGate) {
  // fallback_after counts *eligible* attempts; injected chaos aborts are
  // exempt, so a fault-heavy run is not spuriously serialized.
  StmOptions o;
  o.fallback_after = 1;
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);
  unsigned eligible_seen = ~0u;
  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    if (tx.attempt() <= 4) tx.retry(AbortReason::ChaosInjected);
    eligible_seen = tx.eligible_attempts();
  });
  EXPECT_EQ(eligible_seen, 0u);  // none of the four aborts counted
  EXPECT_EQ(stm.stats().snapshot().gate_holds, 0u);
}

TEST(FallbackEligibilityTest, EligibleAbortsArmTheGateAndRecordHoldTime) {
  StmOptions o;
  o.fallback_after = 1;
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);
  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    if (tx.attempt() == 1) tx.retry(AbortReason::Explicit);
    EXPECT_EQ(tx.eligible_attempts(), 1u);
  });
  const StatsSnapshot s = stm.stats().snapshot();
  EXPECT_EQ(s.gate_holds, 1u);
  EXPECT_GT(s.gate_ns, 0u);
  EXPECT_GE(s.gate_max_ns, s.gate_ns / (s.gate_holds ? s.gate_holds : 1));
}

// --- Watchdog ----------------------------------------------------------------

namespace {

struct ReportSink {
  std::mutex mu;
  std::vector<StallReport> reports;
  void push(const StallReport& r) {
    std::lock_guard<std::mutex> g(mu);
    reports.push_back(r);
  }
  bool any_of(StallReport::Kind k) {
    std::lock_guard<std::mutex> g(mu);
    for (const auto& r : reports) {
      if (r.kind == k) return true;
    }
    return false;
  }
};

}  // namespace

TEST(WatchdogTest, ReportsABodyStuckPastStallAfterUnderDefaultOptions) {
  // Default options: no policy publishes anything, and a single call stuck
  // in its body starts no further attempts. The watchdog must still see the
  // attempt in flight (begun, neither committed nor aborted) and report.
  ReportSink sink;
  Stm stm(Mode::Lazy);
  Var<long> v(0);

  Watchdog::Config cfg;
  cfg.poll = std::chrono::milliseconds(1);
  cfg.stall_after = std::chrono::milliseconds(10);
  cfg.on_stall = [&sink](const StallReport& r) { sink.push(r); };
  Watchdog dog(stm, cfg);

  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    // Sit inside the body long past stall_after: commits stay flat while
    // one attempt is in flight — the stall signature.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  dog.stop();

  EXPECT_GE(dog.stalls(), 1u);
  ASSERT_TRUE(sink.any_of(StallReport::Kind::StalledEpoch));
  std::lock_guard<std::mutex> g(sink.mu);
  for (const auto& r : sink.reports) {
    if (r.kind != StallReport::Kind::StalledEpoch) continue;
    EXPECT_EQ(r.in_flight, 1u);
    EXPECT_EQ(r.gate_holder, ~0u);
    EXPECT_NE(r.to_string().find("in_flight=1"), std::string::npos)
        << r.to_string();
  }
}

TEST(WatchdogTest, ReportsGateBudgetOverrunWhileInFlight) {
  ReportSink sink;
  StmOptions o;
  o.fallback_after = 1;
  Stm stm(Mode::Lazy, o);
  Var<long> v(0);

  Watchdog::Config cfg;
  cfg.poll = std::chrono::milliseconds(1);
  cfg.stall_after = std::chrono::seconds(10);  // only the budget path fires
  cfg.fallback_budget = std::chrono::milliseconds(2);
  cfg.on_stall = [&sink](const StallReport& r) { sink.push(r); };
  Watchdog dog(stm, cfg);

  stm.atomically([&](Txn& tx) {
    tx.write(v, 1);
    if (tx.attempt() == 1) tx.retry(AbortReason::Explicit);
    // Gated (irrevocable) attempt: overstay the 2ms budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  dog.stop();

  EXPECT_GE(dog.budget_overruns(), 1u);
  ASSERT_TRUE(sink.any_of(StallReport::Kind::GateBudgetOverrun));
  std::lock_guard<std::mutex> g(sink.mu);
  for (const auto& r : sink.reports) {
    if (r.kind != StallReport::Kind::GateBudgetOverrun) continue;
    EXPECT_NE(r.gate_holder, ~0u);
    EXPECT_GT(r.stalled_ns,
              static_cast<std::uint64_t>(cfg.fallback_budget.count()));
  }
  const StatsSnapshot s = stm.stats().snapshot();
  EXPECT_EQ(s.gate_holds, 1u);
  EXPECT_GT(s.gate_max_ns, static_cast<std::uint64_t>(
                               std::chrono::nanoseconds(
                                   std::chrono::milliseconds(2))
                                   .count()));
}

TEST(WatchdogTest, LifecycleRestartsCleanlyAndStaysSilentAfterStop) {
  // The sentinel's lifecycle contract: construction starts it, stop() joins
  // it and is idempotent, and once stop() returns no report is delivered —
  // across repeated start/stop cycles and across Stm instances.
  std::atomic<int> reports{0};
  std::atomic<bool> after_stop{false};
  std::atomic<int> late_reports{0};

  for (int gen = 0; gen < 3; ++gen) {
    Stm stm(Mode::Lazy);
    Var<long> v(0);
    Watchdog::Config cfg;
    cfg.poll = std::chrono::milliseconds(1);
    cfg.stall_after = std::chrono::milliseconds(5);
    cfg.on_stall = [&](const StallReport&) {
      reports.fetch_add(1);
      if (after_stop.load()) late_reports.fetch_add(1);
    };
    for (int cycle = 0; cycle < 2; ++cycle) {
      after_stop.store(false);
      Watchdog dog(stm, cfg);
      const int before = reports.load();
      stm.atomically([&](Txn& tx) {
        tx.write(v, gen * 10 + cycle);
        // Long enough past stall_after that this generation must observe
        // its own stall — proving the restarted sentinel actually runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
      dog.stop();
      after_stop.store(true);
      dog.stop();  // idempotent: a second stop is a harmless no-op
      EXPECT_GT(reports.load(), before)
          << "restarted watchdog missed its stall (gen " << gen << " cycle "
          << cycle << ")";
      // A stall-length body with the sentinel joined must stay silent.
      stm.atomically([&](Txn& tx) {
        tx.write(v, -1);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
    }
  }
  EXPECT_EQ(late_reports.load(), 0)
      << "stall report delivered after stop() returned";
}

// --- The starvation regression -----------------------------------------------

namespace {

/// One long read-mostly transaction (scans all vars, then writes one) racing
/// `writers` threads of tiny write transactions. Returns the attempt count
/// the long transaction needed.
unsigned run_starvation_duel(Stm& stm, int writers, int scan_yields) {
  constexpr int kVars = 32;
  std::vector<Var<long>> vars(kVars);
  std::atomic<bool> done{false};
  std::atomic<unsigned> reader_attempts{0};

  std::vector<std::thread> ws;
  for (int w = 0; w < writers; ++w) {
    ws.emplace_back([&, w] {
      long x = 0;
      while (!done.load(std::memory_order_acquire)) {
        stm.atomically([&](Txn& tx) {
          tx.write(vars[(w * 7 + static_cast<int>(x)) % kVars], x);
        });
        ++x;
      }
    });
  }

  long sum = 0;
  stm.atomically([&](Txn& tx) {
    reader_attempts.store(tx.attempt());  // attempt() is 1-based in-body
    sum = 0;
    for (int i = 0; i < kVars; ++i) {
      sum += tx.read(vars[i]);
      // Widen the window: give the writers room to invalidate us.
      if (i % (kVars / scan_yields) == 0) std::this_thread::yield();
    }
    tx.write(vars[0], sum);
  });
  done.store(true, std::memory_order_release);
  for (auto& t : ws) t.join();
  return reader_attempts.load();
}

}  // namespace

class StarvationTest : public ::testing::TestWithParam<CmPolicy> {};

TEST_P(StarvationTest, GateBoundsTheLongReader) {
  // Neither policy bounds the reader's attempts by itself; the irrevocable
  // gate does, and on the Lazy STM the bound is hard: the gated attempt
  // meets no orec lock and no newer version, so it is the last one.
  StmOptions o;
  o.cm_policy = GetParam();
  o.fallback_after = 8;
  Stm stm(Mode::Lazy, o);

  const unsigned attempts = run_starvation_duel(stm, /*writers=*/2,
                                                /*scan_yields=*/4);
  EXPECT_GE(attempts, 1u);
  EXPECT_LE(attempts, o.fallback_after + 1);
}

TEST_P(StarvationTest, GateBoundsHotKeyCalls) {
  // Four threads of read-modify-write transactions over 32 hot vars. A
  // failing ordinary commit must keep the gate's shared side until its
  // rollback has released its orec locks; otherwise the exclusive attempt
  // that follows can read a still-locked var, abort, and push the call past
  // fallback_after + 1 attempts.
  constexpr int kThreads = 4;
  constexpr int kCalls = 3000;
  constexpr int kVars = 32;
  constexpr int kOpsPerTxn = 8;
  StmOptions o;
  o.cm_policy = GetParam();
  o.fallback_after = 4;
  Stm stm(Mode::Lazy, o);
  std::vector<Var<long>> vars(kVars);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      proust::Xoshiro256 rng(0x6A7E + static_cast<std::uint64_t>(t));
      int keys[kOpsPerTxn];
      for (int i = 0; i < kCalls; ++i) {
        for (int& k : keys) k = static_cast<int>(rng.below(kVars));
        stm.atomically([&](Txn& tx) {
          for (int k : keys) tx.write(vars[k], tx.read(vars[k]) + 1);
        });
      }
    });
  }
  for (auto& th : ts) th.join();

  long sum = 0;
  for (const auto& v : vars) sum += v.unsafe_ref();
  EXPECT_EQ(sum, long{kThreads} * kCalls * kOpsPerTxn);
  const StatsSnapshot s = stm.stats().snapshot();
  EXPECT_LE(s.max_attempts, o.fallback_after + 1) << s.to_string();
}

INSTANTIATE_TEST_SUITE_P(Policies, StarvationTest,
                         ::testing::Values(CmPolicy::ExponentialBackoff,
                                           CmPolicy::None),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });
