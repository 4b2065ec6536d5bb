// Tests for the Proustian priority queues: the eager lazy-deletion wrapper
// (Figure 3) and the lazy snapshot wrapper over the COW heap, under both
// LAPs and under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/txn_pqueue.hpp"
#include "stm/stm.hpp"

using namespace proust;
using core::PQueueState;
using core::PQueueStateHasher;

namespace {

class PQView {
 public:
  virtual void insert(long v) = 0;
  virtual std::optional<long> min() = 0;
  virtual std::optional<long> remove_min() = 0;
  virtual bool contains(long v) = 0;

 protected:
  ~PQView() = default;
};

class PQueueUnderTest {
 public:
  virtual ~PQueueUnderTest() = default;
  virtual void atomically(const std::function<void(PQView&)>& body) = 0;
  virtual long size() const = 0;
  /// The base container's structural check (quiescent; empty = sound).
  virtual std::string check_invariants() const = 0;

  void insert1(long v) {
    atomically([&](PQView& q) { q.insert(v); });
  }
  std::optional<long> min1() {
    std::optional<long> r;
    atomically([&](PQView& q) { r = q.min(); });
    return r;
  }
  std::optional<long> remove_min1() {
    std::optional<long> r;
    atomically([&](PQView& q) { r = q.remove_min(); });
    return r;
  }
  bool contains1(long v) {
    bool r = false;
    atomically([&](PQView& q) { r = q.contains(v); });
    return r;
  }
};

template <class PQ>
class ViewImpl final : public PQView {
 public:
  ViewImpl(PQ& q, stm::Txn& tx) : q_(q), tx_(tx) {}
  void insert(long v) override { q_.insert(tx_, v); }
  std::optional<long> min() override { return q_.min(tx_); }
  std::optional<long> remove_min() override { return q_.remove_min(tx_); }
  bool contains(long v) override { return q_.contains(tx_, v); }

 private:
  PQ& q_;
  stm::Txn& tx_;
};

template <class Lap, class PQ>
class Handle final : public PQueueUnderTest {
 public:
  template <class MakeLap>
  Handle(stm::Mode mode, MakeLap&& make_lap)
      : stm_(mode), lap_(make_lap(stm_)), pq_(*lap_) {}

  void atomically(const std::function<void(PQView&)>& body) override {
    stm_.atomically([&](stm::Txn& tx) {
      ViewImpl<PQ> v(pq_, tx);
      body(v);
    });
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
  std::function<std::unique_ptr<PQueueUnderTest>()> make;
};

std::vector<PQConfig> pqueue_configs() {
  using OptLap = core::OptimisticLap<PQueueState, PQueueStateHasher>;
  using PessLap = core::PessimisticLap<PQueueState, PQueueStateHasher>;
  const auto opt = [](stm::Stm& s) { return std::make_unique<OptLap>(s, 2); };
  const auto pess = [](stm::Stm& s) {
    return std::make_unique<PessLap>(s, 2, core::pqueue_lock_kind,
                                     std::chrono::milliseconds(5));
  };
  return {
      {"eager_opt_eagerall",
       [opt] {
         return std::make_unique<
             Handle<OptLap, core::TxnPriorityQueue<long, OptLap>>>(
             stm::Mode::EagerAll, opt);
       }},
      {"eager_pess",
       [pess] {
         return std::make_unique<
             Handle<PessLap, core::TxnPriorityQueue<long, PessLap>>>(
             stm::Mode::Lazy, pess);
       }},
      {"lazy_opt_lazystm",
       [opt] {
         return std::make_unique<
             Handle<OptLap, core::LazyPriorityQueue<long, OptLap>>>(
             stm::Mode::Lazy, opt);
       }},
      {"lazy_opt_eagerall",
       [opt] {
         return std::make_unique<
             Handle<OptLap, core::LazyPriorityQueue<long, OptLap>>>(
             stm::Mode::EagerAll, opt);
       }},
  };
}

class CorePQueueTest : public ::testing::TestWithParam<PQConfig> {
 protected:
  void SetUp() override { pq_ = GetParam().make(); }
  std::unique_ptr<PQueueUnderTest> pq_;
};

}  // namespace

TEST_P(CorePQueueTest, EmptyQueueBehaviour) {
  EXPECT_EQ(pq_->min1(), std::nullopt);
  EXPECT_EQ(pq_->remove_min1(), std::nullopt);
  EXPECT_FALSE(pq_->contains1(1));
  EXPECT_EQ(pq_->size(), 0);
}

TEST_P(CorePQueueTest, InsertThenMin) {
  pq_->insert1(5);
  pq_->insert1(3);
  pq_->insert1(8);
  EXPECT_EQ(pq_->min1(), 3);
  EXPECT_EQ(pq_->size(), 3);
}

TEST_P(CorePQueueTest, RemoveMinDrainsInOrder) {
  for (long v : {9L, 2L, 7L, 2L, 5L}) pq_->insert1(v);
  EXPECT_EQ(pq_->remove_min1(), 2);
  EXPECT_EQ(pq_->remove_min1(), 2);
  EXPECT_EQ(pq_->remove_min1(), 5);
  EXPECT_EQ(pq_->remove_min1(), 7);
  EXPECT_EQ(pq_->remove_min1(), 9);
  EXPECT_EQ(pq_->remove_min1(), std::nullopt);
  EXPECT_EQ(pq_->size(), 0);
}

TEST_P(CorePQueueTest, ContainsTracksMultiset) {
  pq_->insert1(4);
  EXPECT_TRUE(pq_->contains1(4));
  EXPECT_FALSE(pq_->contains1(5));
  pq_->remove_min1();
  EXPECT_FALSE(pq_->contains1(4));
}

TEST_P(CorePQueueTest, MultiOpTxnIsAtomic) {
  pq_->atomically([](PQView& q) {
    q.insert(10);
    q.insert(1);
    EXPECT_EQ(q.min(), 1);
    EXPECT_EQ(q.remove_min(), 1);
    EXPECT_EQ(q.min(), 10);
  });
  EXPECT_EQ(pq_->size(), 1);
  EXPECT_EQ(pq_->min1(), 10);
}

TEST_P(CorePQueueTest, AbortRollsBackInserts) {
  pq_->insert1(50);
  EXPECT_THROW(pq_->atomically([](PQView& q) {
                 q.insert(1);
                 q.insert(2);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(pq_->min1(), 50);
  EXPECT_EQ(pq_->size(), 1);
  EXPECT_FALSE(pq_->contains1(1));
}

TEST_P(CorePQueueTest, AbortRollsBackRemoveMin) {
  pq_->insert1(3);
  pq_->insert1(7);
  EXPECT_THROW(pq_->atomically([](PQView& q) {
                 EXPECT_EQ(q.remove_min(), 3);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(pq_->min1(), 3);
  EXPECT_EQ(pq_->size(), 2);
}

TEST_P(CorePQueueTest, AbortedInsertDoesNotResurrectViaMin) {
  // A tombstoned (aborted) insert at the top must be invisible to min().
  pq_->insert1(100);
  EXPECT_THROW(pq_->atomically([](PQView& q) {
                 q.insert(1);  // would become the min
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(pq_->min1(), 100);
  EXPECT_EQ(pq_->remove_min1(), 100);
  EXPECT_EQ(pq_->remove_min1(), std::nullopt);
}

TEST_P(CorePQueueTest, InsertRemoveInterleavedTxn) {
  pq_->atomically([](PQView& q) {
    q.insert(6);
    q.insert(4);
    EXPECT_EQ(q.remove_min(), 4);
    q.insert(2);
    EXPECT_EQ(q.remove_min(), 2);
  });
  EXPECT_EQ(pq_->size(), 1);
  EXPECT_EQ(pq_->min1(), 6);
}

TEST_P(CorePQueueTest, ConcurrentInsertsAllVisible) {
  constexpr int kThreads = 4, kPerThread = 300;
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (long i = 0; i < kPerThread; ++i) {
        pq_->insert1(t * kPerThread + i);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(pq_->size(), long{kThreads} * kPerThread);
  EXPECT_EQ(pq_->min1(), 0);
  EXPECT_EQ(pq_->check_invariants(), "");
}

TEST_P(CorePQueueTest, ConcurrentMixedConservesElements) {
  constexpr int kThreads = 4, kPerThread = 250;
  std::atomic<long> removed{0};
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      proust::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (long i = 0; i < kPerThread; ++i) {
        pq_->insert1(static_cast<long>(rng.below(1000)));
        if (i % 2 == 1) {
          if (pq_->remove_min1()) removed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(pq_->size() + removed.load(), long{kThreads} * kPerThread);
  EXPECT_EQ(pq_->check_invariants(), "");
}

TEST_P(CorePQueueTest, ConcurrentRemoveMinsAreDistinctElements) {
  // Insert 0..N-1 (distinct), then concurrently removeMin: every removed
  // value must be unique and the union with leftovers must equal the input.
  constexpr long kN = 400;
  for (long i = 0; i < kN; ++i) pq_->insert1(i);
  std::vector<std::vector<long>> removed(4);
  std::barrier sync(4);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int i = 0; i < kN / 4; ++i) {
        auto v = pq_->remove_min1();
        if (v) removed[t].push_back(*v);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::set<long> all;
  std::size_t count = 0;
  for (auto& vec : removed) {
    for (long v : vec) {
      all.insert(v);
      ++count;
    }
  }
  EXPECT_EQ(all.size(), count) << "a value was removed twice";
  EXPECT_EQ(static_cast<long>(count) + pq_->size(), kN);
  EXPECT_EQ(pq_->check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CorePQueueTest,
                         ::testing::ValuesIn(pqueue_configs()),
                         [](const auto& info) { return info.param.name; });
