// `map`: an eager/optimistic Proust map on Mode::EagerAll (the mode Thm 5.2
// requires for opacity). 80% query calls of 4 gets, 20% update calls of
// 2 puts + 2 removes over 2^20 uniform keys kept half full.
//
// This file also documents the interface a workload gives runner.hpp:
//   Local                      per-thread record of committed effects
//   kOpsPerThread              generated calls per worker (cycled)
//   describe(Report&)          metadata lines
//   make_op(Rng&), generate(Rng&)   inputs, before any clock starts
//   setup(), teardown()        build (timed) / destroy the structures
//   stm(), wal()               what the counters are read from
//   call<Traced>(op, local, trace)   one atomically call
//   stationary(why)            sampled during the window
//   check(locals, traced, Report&)   end-of-run correctness (untimed)
//   layers(Report&)            traced run: direct container calls
#include <memory>
#include <numeric>
#include <optional>

#include "containers/striped_hash_map.hpp"
#include "core/lap.hpp"
#include "core/txn_hash_map.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace stm = proust::stm;
namespace core = proust::core;

class MapWorkload {
  using Lap = core::OptimisticLap<long>;
  using Map = core::TxnHashMap<long, long, Lap>;

  struct State {
    explicit State(std::size_t stripes) : map(lap, stripes) {}
    stm::Stm stm{stm::Mode::EagerAll};
    Lap lap{stm, 4096};
    Map map;
  };

 public:
  struct Local {
    long size_delta = 0;  // net inserts minus removes of committed calls
  };
  static constexpr std::size_t kOpsPerThread = std::size_t{1} << 18;

  explicit MapWorkload(const Config& cfg)
      : keys_(cfg.smoke ? 1u << 14 : 1u << 20) {}

  void describe(Report& r) const {
    r.meta("structure: TxnHashMap<long,long,OptimisticLap> keys=" +
           std::to_string(keys_) + " prefilled=" + std::to_string(keys_ / 2) +
           " ca_slots=4096 stripes=" + std::to_string(stripes()));
    r.meta("mix: 80% query (4 get), 20% update (2 put + 2 remove), uniform keys");
    r.meta("stm: mode=EagerAll options=default");
  }

  Op make_op(Rng& rng) const {
    Op op{};
    for (auto& k : op.k) k = static_cast<std::uint32_t>(rng.below(keys_));
    op.arg = static_cast<std::int64_t>(rng.below(1u << 30));
    op.update = rng.below(100) < 20;
    return op;
  }

  /// The prefilled half: the first keys_/2 of a seeded shuffle.
  void generate(Rng& rng) {
    prefill_.resize(keys_);
    std::iota(prefill_.begin(), prefill_.end(), 0u);
    for (std::size_t i = keys_ - 1; i > 0; --i) {
      std::swap(prefill_[i], prefill_[rng.below(i + 1)]);
    }
    prefill_.resize(keys_ / 2);
  }

  void setup() {
    state_ = std::make_unique<State>(stripes());
    for (std::uint32_t k : prefill_) state_->map.unsafe_put(k, k);
  }
  void teardown() { state_.reset(); }

  stm::Stm& stm() { return state_->stm; }
  stm::Wal* wal() { return nullptr; }

  template <bool T>
  void call(const Op& op, Local& local, Trace<T>& trace) {
    Map& map = state_->map;
    if (!op.update) {
      state_->stm.atomically([&](stm::Txn& tx) {
        typename Trace<T>::Scope attempt(trace, Kind::Attempt);
        long found = 0;
        for (std::uint32_t k : op.k) {
          found += trace.op(Kind::MapGet, [&] { return map.get(tx, k); }).has_value();
        }
        return found;
      });
      return;
    }
    local.size_delta += state_->stm.atomically([&](stm::Txn& tx) {
      typename Trace<T>::Scope attempt(trace, Kind::Attempt);
      long d = 0;
      for (int i = 0; i < 2; ++i) {
        const long k = op.k[i];
        d += !trace.op(Kind::MapPut, [&] { return map.put(tx, k, op.arg); });
      }
      for (int i = 2; i < 4; ++i) {
        const long k = op.k[i];
        d -= trace.op(Kind::MapRemove, [&] { return map.remove(tx, k); }).has_value();
      }
      return d;
    });
  }

  /// Occupancy stays within 2% of the key range around one half.
  bool stationary(std::string& why) const {
    const long size = state_->map.size();
    const long half = static_cast<long>(keys_ / 2);
    if (std::labs(size - half) <= static_cast<long>(keys_ / 50)) return true;
    why = "map size " + std::to_string(size) + " drifted from " + std::to_string(half);
    return false;
  }

  /// Recount the present keys; the count, size() and the prefill plus every
  /// committed call's net effect must agree.
  void check(const std::vector<Local>& locals, bool, Report& r) {
    long expected = static_cast<long>(prefill_.size());
    for (const Local& l : locals) expected += l.size_delta;
    long present = 0;
    constexpr std::uint32_t kChunk = 4096;
    for (std::uint32_t lo = 0; lo < keys_; lo += kChunk) {
      present += state_->stm.atomically([&](stm::Txn& tx) {
        long n = 0;
        for (std::uint32_t k = lo; k < lo + kChunk && k < keys_; ++k) {
          n += state_->map.get(tx, k).has_value();
        }
        return n;
      });
    }
    const long size = state_->map.size();
    r.meta("check: present=" + std::to_string(present) + " size()=" +
           std::to_string(size) + " expected=" + std::to_string(expected));
    if (present != size || size != expected) {
      r.error("map: recount " + std::to_string(present) + ", size() " +
              std::to_string(size) + ", prefill+net " + std::to_string(expected));
    }
  }

  /// Direct StripedHashMap calls on one thread, on a private map sized and
  /// filled like the workload's.
  void layers(Report& r) const {
    proust::containers::StripedHashMap<long, long> m(stripes());
    for (std::uint32_t k : prefill_) m.put(k, k);
    Rng rng(prefill_.size());
    std::vector<long> keys(1u << 16);
    for (long& k : keys) k = static_cast<long>(rng.below(keys_));
    const std::size_t mask = keys.size() - 1;
    r.set("containers.hashmap_get_ns", batched_ns(2000, 64, [&](std::uint64_t i) {
            (void)m.get(keys[i & mask]);
          }));
    r.set("containers.hashmap_put_ns", batched_ns(2000, 64, [&](std::uint64_t i) {
            m.put(keys[i & mask], static_cast<long>(i));
          }));
  }

 private:
  /// The base map never rehashes: 16 buckets per stripe over the key range.
  std::size_t stripes() const { return keys_ / 16; }

  std::uint32_t keys_;
  std::vector<std::uint32_t> prefill_;
  std::unique_ptr<State> state_;
};

}  // namespace

Report run_map(const Config& cfg) { return run<MapWorkload>(cfg); }

}  // namespace perfbench
