// Priority-queue conservation under deterministic fault injection (ctest
// label "chaos"): concurrent insert/remove_min transactions with injected
// aborts, delays and forced lock timeouts must conserve the multiset of
// elements — every inserted value is eventually removed exactly once or
// still present at the end. Exercises the pqueue wrappers' inverse logs and
// replay logs (and, for eager_pess, the group-mode abstract locks) on their
// failure paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/txn_pqueue.hpp"
#include "stm/chaos.hpp"
#include "stm/stm.hpp"

using namespace proust;
using core::PQueueState;
using core::PQueueStateHasher;

namespace {

std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 0xC45EEDu;
    if (const char* env = std::getenv("PROUST_CHAOS_SEED")) {
      s = std::strtoull(env, nullptr, 0);
    }
    std::fprintf(stderr,
                 "[chaos] base seed %llu (override: PROUST_CHAOS_SEED)\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

class PQueueUnderTest {
 public:
  virtual ~PQueueUnderTest() = default;
  virtual void insert1(long v) = 0;
  virtual std::optional<long> remove_min1() = 0;
  virtual long size() const = 0;
  /// The base container's structural check (quiescent; empty = sound).
  virtual std::string check_invariants() const = 0;
};

template <class Lap, class PQ>
class Handle final : public PQueueUnderTest {
 public:
  template <class MakeLap>
  Handle(stm::Mode mode, const stm::StmOptions& opts, MakeLap&& make_lap)
      : stm_(mode, opts), lap_(make_lap(stm_)), pq_(*lap_) {}

  void insert1(long v) override {
    stm_.atomically([&](stm::Txn& tx) { pq_.insert(tx, v); });
  }
  std::optional<long> remove_min1() override {
    std::optional<long> r;
    stm_.atomically([&](stm::Txn& tx) { r = pq_.remove_min(tx); });
    return r;
  }
  long size() const override { return pq_.size(); }
  std::string check_invariants() const override {
    return pq_.check_invariants();
  }

 private:
  stm::Stm stm_;
  std::unique_ptr<Lap> lap_;
  PQ pq_;
};

struct PQConfig {
  std::string name;
  std::function<std::unique_ptr<PQueueUnderTest>(const stm::StmOptions&)>
      make_with;
};

std::vector<PQConfig> pqueue_configs() {
  using OptLap = core::OptimisticLap<PQueueState, PQueueStateHasher>;
  using PessLap = core::PessimisticLap<PQueueState, PQueueStateHasher>;
  const auto opt = [](stm::Stm& s) { return std::make_unique<OptLap>(s, 2); };
  const auto pess = [](stm::Stm& s) {
    // Default timeout: taken from s.options().lap_timeout, with jitter.
    return std::make_unique<PessLap>(s, 2, core::pqueue_lock_kind);
  };
  return {
      {"eager_opt_eagerall",
       [opt](const stm::StmOptions& o) {
         return std::make_unique<
             Handle<OptLap, core::TxnPriorityQueue<long, OptLap>>>(
             stm::Mode::EagerAll, o, opt);
       }},
      {"eager_pess",
       [pess](const stm::StmOptions& o) {
         return std::make_unique<
             Handle<PessLap, core::TxnPriorityQueue<long, PessLap>>>(
             stm::Mode::Lazy, o, pess);
       }},
      {"lazy_opt_lazystm",
       [opt](const stm::StmOptions& o) {
         return std::make_unique<
             Handle<OptLap, core::LazyPriorityQueue<long, OptLap>>>(
             stm::Mode::Lazy, o, opt);
       }},
      {"lazy_opt_eagerall",
       [opt](const stm::StmOptions& o) {
         return std::make_unique<
             Handle<OptLap, core::LazyPriorityQueue<long, OptLap>>>(
             stm::Mode::EagerAll, o, opt);
       }},
  };
}

class ChaosPQueueTest : public ::testing::TestWithParam<PQConfig> {};

}  // namespace

TEST_P(ChaosPQueueTest, ConservationUnderInjection) {
  const std::uint64_t seed = base_seed() + 31;
  SCOPED_TRACE("chaos seed " + std::to_string(seed) + " (config " +
               GetParam().name + ")");

  stm::ChaosPolicy policy(stm::ChaosConfig::standard(seed));
  policy.install_lock_hook();
  stm::StmOptions opts;
  opts.chaos = &policy;
  opts.lap_timeout = std::chrono::milliseconds(1);
  auto pq = GetParam().make_with(opts);

  constexpr int kThreads = 4, kPerThread = 150;
  std::mutex removed_mu;
  std::vector<long> removed;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      proust::Xoshiro256 rng(seed + t * 977 + 5);
      for (int i = 0; i < kPerThread; ++i) {
        pq->insert1(static_cast<long>(t) * kPerThread + i);
        if (rng.uniform() < 0.5) {
          if (auto v = pq->remove_min1()) {
            std::lock_guard<std::mutex> g(removed_mu);
            removed.push_back(*v);
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  policy.remove_lock_hook();
  EXPECT_EQ(pq->check_invariants(), "");

  // Drain what is left; removed ∪ drained must be exactly the inserted set
  // (each element once — a leaked insert or resurrected tombstone breaks it).
  while (auto v = pq->remove_min1()) removed.push_back(*v);
  EXPECT_EQ(pq->size(), 0);
  ASSERT_EQ(removed.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::sort(removed.begin(), removed.end());
  for (long i = 0; i < static_cast<long>(removed.size()); ++i) {
    ASSERT_EQ(removed[static_cast<std::size_t>(i)], i) << "element " << i;
  }
  EXPECT_EQ(policy.leaks(), 0u);
  EXPECT_GT(policy.injected_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ChaosPQueueTest,
                         ::testing::ValuesIn(pqueue_configs()),
                         [](const auto& info) { return info.param.name; });
