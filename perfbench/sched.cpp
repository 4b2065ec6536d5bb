// `sched`: a lazy/optimistic task scheduler on Mode::Lazy, with the CA
// sizes of examples/task_scheduler.cpp. 50% update calls "run the next
// job" (remove_min, record its result, re-insert it one period later,
// count the run); 50% query calls read 2 results and the queue's min.
// Queue depth and result count are constant by construction.
#include <memory>
#include <optional>

#include "containers/cow_heap.hpp"
#include "containers/snapshot_hamt.hpp"
#include "core/lap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_counter.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace stm = proust::stm;
namespace core = proust::core;

struct Job {
  long due;
  long id;
  bool operator<(const Job& o) const {
    return due != o.due ? due < o.due : id < o.id;
  }
};

class SchedWorkload {
  using PqLap = core::OptimisticLap<core::PQueueState, core::PQueueStateHasher>;
  using MapLap = core::OptimisticLap<long>;
  using CtrLap = core::OptimisticLap<core::CounterState, core::CounterStateHasher>;

  struct State {
    stm::Stm stm{stm::Mode::Lazy};
    PqLap pq_lap{stm, 2};
    MapLap map_lap{stm, 512};
    CtrLap ctr_lap{stm, 1};
    core::LazyPriorityQueue<Job, PqLap> queue{pq_lap};
    core::LazyTrieMap<long, long, MapLap> results{map_lap};
    core::TxnCounter<CtrLap> runs{ctr_lap};
  };

  static constexpr long kMaxPeriod = 1 << 20;

 public:
  struct Local {
    long runs = 0;   // committed update calls
    long empty = 0;  // remove_min calls that found no job
  };
  static constexpr std::size_t kOpsPerThread = std::size_t{1} << 17;

  explicit SchedWorkload(const Config& cfg) : jobs_(cfg.smoke ? 1u << 10 : 1u << 16) {}

  void describe(Report& r) const {
    r.meta("structure: LazyPriorityQueue<Job> (CowHeap) jobs=" + std::to_string(jobs_) +
           ", LazyTrieMap<long,long> results=" + std::to_string(jobs_) +
           ", TxnCounter; ca_slots pq=2 map=512 counter=1");
    r.meta("mix: 50% update (remove_min, result put, insert, incr), "
           "50% query (2 result get + min)");
    r.meta("stm: mode=Lazy options=default");
  }

  Op make_op(Rng& rng) const {
    Op op{};
    op.k[0] = static_cast<std::uint32_t>(rng.below(jobs_));
    op.k[1] = static_cast<std::uint32_t>(rng.below(jobs_));
    op.arg = 1 + static_cast<std::int64_t>(rng.below(kMaxPeriod));
    op.update = rng.below(2) == 0;
    return op;
  }

  void generate(Rng& rng) {
    due_.resize(jobs_);
    for (long& d : due_) d = static_cast<long>(rng.below(kMaxPeriod));
  }

  void setup() {
    state_ = std::make_unique<State>();
    for (std::uint32_t id = 0; id < jobs_; ++id) {
      state_->queue.unsafe_insert(Job{due_[id], id});
      state_->results.unsafe_put(id, -1);
    }
  }
  void teardown() { state_.reset(); }

  stm::Stm& stm() { return state_->stm; }
  stm::Wal* wal() { return nullptr; }

  template <bool T>
  void call(const Op& op, Local& local, Trace<T>& trace) {
    State& s = *state_;
    if (!op.update) {
      s.stm.atomically([&](stm::Txn& tx) {
        typename Trace<T>::Scope attempt(trace, Kind::Attempt);
        long seen = 0;
        for (int i = 0; i < 2; ++i) {
          const long id = op.k[i];
          seen += trace.op(Kind::TrieGet, [&] { return s.results.get(tx, id); })
                      .value_or(0);
        }
        return seen + trace.op(Kind::PqMin, [&] { return s.queue.min(tx); })
                          .value_or(Job{0, 0})
                          .due;
      });
      return;
    }
    const bool ran = s.stm.atomically([&](stm::Txn& tx) {
      typename Trace<T>::Scope attempt(trace, Kind::Attempt);
      const std::optional<Job> j =
          trace.op(Kind::PqRemoveMin, [&] { return s.queue.remove_min(tx); });
      if (!j) return false;
      trace.op(Kind::TriePut, [&] { return s.results.put(tx, j->id, j->due); });
      trace.op(Kind::PqInsert, [&] { s.queue.insert(tx, Job{j->due + op.arg, j->id}); });
      trace.op(Kind::CounterIncr, [&] { s.runs.incr(tx); });
      return true;
    });
    ++(ran ? local.runs : local.empty);
  }

  bool stationary(std::string& why) const {
    const long q = state_->queue.size();
    const long n = state_->results.size();
    if (q == static_cast<long>(jobs_) && n == static_cast<long>(jobs_)) return true;
    why = "queue size " + std::to_string(q) + ", results " + std::to_string(n) +
          ", expected " + std::to_string(jobs_);
    return false;
  }

  /// Sizes unchanged, the counter equals the committed runs, no remove_min
  /// came back empty, and draining the queue yields every job id once in
  /// due order.
  void check(const std::vector<Local>& locals, bool, Report& r) {
    State& s = *state_;
    long runs = 0, empty = 0;
    for (const Local& l : locals) {
      runs += l.runs;
      empty += l.empty;
    }
    std::string why;
    if (!stationary(why)) r.error("sched: " + why);
    if (s.runs.value() != runs) {
      r.error("sched: counter " + std::to_string(s.runs.value()) + " != committed runs " +
              std::to_string(runs));
    }
    if (empty != 0) r.error("sched: " + std::to_string(empty) + " empty remove_min");
    std::vector<bool> seen(jobs_, false);
    long drained = 0, bad = 0, last_due = -1;
    for (;;) {
      const std::vector<Job> batch = s.stm.atomically([&](stm::Txn& tx) {
        std::vector<Job> out;
        while (out.size() < 1024) {
          const std::optional<Job> j = s.queue.remove_min(tx);
          if (!j) break;
          out.push_back(*j);
        }
        return out;
      });
      if (batch.empty()) break;
      for (const Job& j : batch) {
        const bool known = j.id >= 0 && j.id < static_cast<long>(jobs_);
        bad += j.due < last_due || !known || seen[static_cast<std::size_t>(j.id)];
        if (known) seen[static_cast<std::size_t>(j.id)] = true;
        last_due = j.due;
        ++drained;
      }
    }
    r.meta("check: runs=" + std::to_string(runs) + " counter=" +
           std::to_string(s.runs.value()) + " drained=" + std::to_string(drained));
    if (drained != static_cast<long>(jobs_) || bad != 0) {
      r.error("sched: drained " + std::to_string(drained) + " jobs, " +
              std::to_string(bad) + " out of order, unknown or repeated");
    }
  }

  /// Direct CowHeap and SnapshotHamt calls on one thread, on private
  /// instances holding the workload's job count.
  void layers(Report& r) const {
    proust::containers::CowHeap<Job> heap;
    proust::containers::SnapshotHamt<long, long> hamt;
    for (std::uint32_t id = 0; id < jobs_; ++id) {
      heap.insert(Job{due_[id], id});
      hamt.put(id, -1);
    }
    Rng rng(jobs_);
    std::vector<long> ids(1u << 16), periods(1u << 16);
    for (long& id : ids) id = static_cast<long>(rng.below(jobs_));
    for (long& p : periods) p = 1 + static_cast<long>(rng.below(kMaxPeriod));
    const std::size_t mask = ids.size() - 1;
    r.set("containers.heap_cycle_ns", batched_ns(1000, 32, [&](std::uint64_t i) {
            const Job j = *heap.remove_min();
            heap.insert(Job{j.due + periods[i & mask], j.id});
          }));
    r.set("containers.hamt_put_ns", batched_ns(1000, 32, [&](std::uint64_t i) {
            hamt.put(ids[i & mask], static_cast<long>(i));
          }));
    r.set("containers.hamt_get_ns", batched_ns(2000, 64, [&](std::uint64_t i) {
            (void)hamt.get(ids[i & mask]);
          }));
    r.set("containers.snapshot_ns", batched_ns(2000, 64, [&](std::uint64_t) {
            auto a = heap.snapshot();
            auto b = hamt.snapshot();
          }));
  }

 private:
  std::uint32_t jobs_;
  std::vector<long> due_;  // initial due time of each job id
  std::unique_ptr<State> state_;
};

}  // namespace

Report run_sched(const Config& cfg) { return run<SchedWorkload>(cfg); }

}  // namespace perfbench
