// The chaos differential suite (ctest label "chaos"): multi-threaded
// randomized map transactions under deterministic runtime fault injection
// (stm/chaos.hpp), checked against a mutex-guarded reference applied only on
// commit. Every injected abort, delay, forced LAP timeout and RW-lock
// slow-path failure must be absorbed by the retry machinery without leaking
// partial effects, orecs, abstract-lock stripes or reader marks.
//
// Reproducing a failure: every assertion carries the seed via SCOPED_TRACE,
// and the base seed is printed at suite start. Re-run with
//   PROUST_CHAOS_SEED=<seed> ./chaos_test --gtest_filter=<failing test>
// to replay the same per-thread decision streams (see the determinism
// contract in stm/chaos.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "map_configs.hpp"
#include "stm/chaos.hpp"

using namespace proust::testing;
namespace stm = proust::stm;

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

struct Planned {
  int kind;
  long k, v;
};

/// N threads of randomized planned transactions against `map`, with the
/// reference folded in via on_commit_locked (runs behind the STM's locks, so
/// conflicting transactions apply in serialization order; aborted attempts
/// drop the hook with their arena). Returns the reference's final state.
std::map<long, long> run_differential(MapUnderTest& map, std::uint64_t seed,
                                      int threads, int txns_per_thread,
                                      long keys) {
  std::mutex ref_mu;
  std::map<long, long> reference;
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      proust::Xoshiro256 rng(seed * 6364136223846793005ULL + t * 1442695041ULL +
                             1);
      for (int i = 0; i < txns_per_thread; ++i) {
        const int ops = 1 + static_cast<int>(rng.below(6));
        std::vector<Planned> plan;
        for (int j = 0; j < ops; ++j) {
          plan.push_back({static_cast<int>(rng.below(3)),
                          static_cast<long>(rng.below(
                              static_cast<std::uint64_t>(keys))),
                          static_cast<long>(rng.below(1000))});
        }
        std::vector<char> removed(plan.size(), 0);
        map.atomically_tx([&](MapView& m, stm::Txn& tx) {
          tx.on_commit_locked([&] {
            std::lock_guard<std::mutex> g(ref_mu);
            for (std::size_t j = 0; j < plan.size(); ++j) {
              const Planned& p = plan[j];
              if (p.kind == 0) {
                reference[p.k] = p.v;
              } else if (p.kind == 1 && removed[j]) {
                // Apply removes only when the map reported a removal. Hooks
                // of *writing* commits run in serialization order (the writer
                // holds the conflicting stripe for its whole commit window),
                // but a remove of an absent key may be read-only at the CA
                // level (predication reads the predicate without writing), so
                // its hook is NOT ordered against a concurrent writer of the
                // same key — an unconditional erase here could revert that
                // writer's put even though the STM serialized the remove
                // first. A no-op remove folds to a no-op on the reference in
                // either order, so skipping it keeps the fold exact.
                reference.erase(p.k);
              }
            }
          });
          for (std::size_t j = 0; j < plan.size(); ++j) {
            const Planned& p = plan[j];
            switch (p.kind) {
              case 0: m.put(p.k, p.v); break;
              case 1: removed[j] = m.remove(p.k).has_value(); break;
              default: m.get(p.k); break;
            }
          }
        });
      }
    });
  }
  for (auto& th : ts) th.join();
  return reference;
}

void expect_map_equals(MapUnderTest& map, const std::map<long, long>& reference,
                       long keys) {
  for (long k = 0; k < keys; ++k) {
    auto it = reference.find(k);
    std::optional<long> expected =
        it == reference.end() ? std::nullopt : std::make_optional(it->second);
    ASSERT_EQ(map.get1(k), expected) << "key " << k;
  }
  if (map.committed_size() >= 0) {
    EXPECT_EQ(map.committed_size(), static_cast<long>(reference.size()));
  }
  EXPECT_EQ(map.check_invariants(), "");
}

using Param = std::tuple<MapConfig, std::uint64_t>;

class ChaosMapTest : public ::testing::TestWithParam<Param> {};

}  // namespace

TEST_P(ChaosMapTest, DifferentialUnderInjection) {
  const MapConfig& cfg = std::get<0>(GetParam());
  const std::uint64_t seed = base_seed() + std::get<1>(GetParam());
  SCOPED_TRACE("chaos seed " + std::to_string(seed) + " (config " + cfg.name +
               ")");

  stm::ChaosPolicy policy(stm::ChaosConfig::standard(seed));
  policy.install_lock_hook();
  stm::StmOptions opts;
  opts.chaos = &policy;
  auto map = cfg.make_with(opts);

  const long kKeys = 32;
  const auto reference = run_differential(*map, seed, 4, 250, kKeys);

  policy.remove_lock_hook();  // quiesce before reading policy counters
  expect_map_equals(*map, reference, kKeys);
  EXPECT_EQ(policy.leaks(), 0u);
  // The workload is large enough that a zero injection count means the
  // harness is wired up wrong, not that the dice were unlucky.
  EXPECT_GT(policy.injected_total(), 0u);
  // Txn-level injections also surface in the STM's stats (the bench JSON
  // uses this); the sync-layer LockTransition cell is policy-only.
  EXPECT_GT(map->stats().total_injected(), 0u);
}

TEST_P(ChaosMapTest, AggressiveInjectionStillConverges) {
  const MapConfig& cfg = std::get<0>(GetParam());
  const std::uint64_t seed = base_seed() + 71 + std::get<1>(GetParam());
  SCOPED_TRACE("chaos seed " + std::to_string(seed) + " (config " + cfg.name +
               ")");

  stm::ChaosPolicy policy(stm::ChaosConfig::aggressive(seed));
  policy.install_lock_hook();
  stm::StmOptions opts;
  opts.chaos = &policy;
  // Shorter LAP timeouts recover faster from injected slow-path failures.
  opts.lap_timeout = std::chrono::milliseconds(1);
  auto map = cfg.make_with(opts);

  const long kKeys = 24;
  const auto reference = run_differential(*map, seed, 4, 120, kKeys);

  policy.remove_lock_hook();
  expect_map_equals(*map, reference, kKeys);
  EXPECT_EQ(policy.leaks(), 0u);
  EXPECT_GT(policy.injected_total(), 0u);
}

TEST_P(ChaosMapTest, InjectionComposesWithFallbackGate) {
  // The irrevocable fallback (StmOptions::fallback_after) re-runs a starving
  // transaction under the STM's exclusive commit gate. Chaos can still abort
  // that gated attempt; the retry loop must release and re-take the gate
  // without wedging or leaking.
  const MapConfig& cfg = std::get<0>(GetParam());
  const std::uint64_t seed = base_seed() + 143 + std::get<1>(GetParam());
  SCOPED_TRACE("chaos seed " + std::to_string(seed) + " (config " + cfg.name +
               ")");

  stm::ChaosPolicy policy(stm::ChaosConfig::aggressive(seed));
  policy.install_lock_hook();
  stm::StmOptions opts;
  opts.chaos = &policy;
  opts.fallback_after = 3;
  auto map = cfg.make_with(opts);

  const long kKeys = 16;
  const auto reference = run_differential(*map, seed, 4, 80, kKeys);

  policy.remove_lock_hook();
  expect_map_equals(*map, reference, kKeys);
  EXPECT_EQ(policy.leaks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosMapTest,
    ::testing::Combine(::testing::ValuesIn(opaque_map_configs()),
                       ::testing::Values(0u)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// --- Determinism contract ---------------------------------------------------

TEST(ChaosDeterminismTest, SameSeedSameDecisionStream) {
  const std::uint64_t seed = base_seed();
  stm::ChaosPolicy a(stm::ChaosConfig::standard(seed));
  stm::ChaosPolicy b(stm::ChaosConfig::standard(seed));
  stm::ChaosPolicy c(stm::ChaosConfig::standard(seed + 1));
  bool differs = false;
  for (int i = 0; i < 10000; ++i) {
    const auto p = static_cast<stm::ChaosPoint>(i % stm::kNumChaosPoints);
    const stm::ChaosAction va = a.decide(p);
    const stm::ChaosAction vb = b.decide(p);
    ASSERT_EQ(va, vb) << "decision " << i << " diverged for equal seeds";
    if (va != c.decide(p)) differs = true;
  }
  EXPECT_TRUE(differs) << "distinct seeds produced identical streams";
  EXPECT_EQ(a.injected_total(), b.injected_total());
}

TEST(ChaosDeterminismTest, SingleThreadedWorkloadReplaysBitExact) {
  // One thread, same seed, two runs: the decision sequence each transaction
  // meets is identical, so the whole execution — injected aborts, retries,
  // final state, injection counters — replays exactly.
  const std::uint64_t seed = base_seed() + 9;
  auto run = [&](std::map<long, long>& out_state, stm::StatsSnapshot& out_stats,
                 std::array<std::uint64_t, stm::kNumChaosPoints>& out_injected) {
    stm::ChaosPolicy policy(stm::ChaosConfig::aggressive(seed));
    stm::StmOptions opts;
    opts.chaos = &policy;
    MapConfig cfg;
    for (auto& c : all_map_configs()) {
      if (c.name == "lazy_memo_lazystm") cfg = c;
    }
    ASSERT_FALSE(cfg.name.empty());
    auto map = cfg.make_with(opts);
    proust::Xoshiro256 rng(seed);
    for (int i = 0; i < 400; ++i) {
      const long k = static_cast<long>(rng.below(16));
      const long v = static_cast<long>(rng.below(1000));
      switch (rng.below(3)) {
        case 0: map->put1(k, v); break;
        case 1: map->remove1(k); break;
        default: map->get1(k); break;
      }
    }
    for (long k = 0; k < 16; ++k) {
      if (auto v = map->get1(k)) out_state[k] = *v;
    }
    out_stats = map->stats();
    out_injected = policy.injected_totals();
    EXPECT_EQ(policy.leaks(), 0u);
  };

  std::map<long, long> s1, s2;
  stm::StatsSnapshot st1, st2;
  std::array<std::uint64_t, stm::kNumChaosPoints> inj1{}, inj2{};
  run(s1, st1, inj1);
  run(s2, st2, inj2);

  EXPECT_EQ(s1, s2);
  EXPECT_EQ(st1.starts, st2.starts);
  EXPECT_EQ(st1.commits, st2.commits);
  EXPECT_EQ(st1.total_aborts(), st2.total_aborts());
  EXPECT_EQ(inj1, inj2);
  EXPECT_GT(st1.total_injected(), 0u);
}

TEST(ChaosDeterminismTest, FullMatrixReplaysInjectionsAndAbortReasons) {
  // The replay contract across the whole design-space matrix: two runs with
  // the same seed must produce, for every map config, identical per-point
  // injection counters AND an identical per-call abort-reason stream (the
  // delta of the per-reason abort counters after each operation) — the two
  // artifacts a PROUST_CHAOS_SEED replay of a failure report relies on.
  const std::uint64_t seed = base_seed() + 17;
  constexpr std::size_t kReasons =
      static_cast<std::size_t>(stm::AbortReason::kCount);
  using AbortArray = std::array<std::uint64_t, kReasons>;
  struct RunTrace {
    std::array<std::uint64_t, stm::kNumChaosPoints> injected{};
    std::vector<AbortArray> abort_stream;
    std::map<long, long> state;
  };
  auto run = [&](const MapConfig& cfg, RunTrace& out) {
    stm::ChaosPolicy policy(stm::ChaosConfig::aggressive(seed));
    stm::StmOptions opts;
    opts.chaos = &policy;
    auto map = cfg.make_with(opts);
    proust::Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ULL);
    AbortArray prev{};
    for (int i = 0; i < 160; ++i) {
      const long k = static_cast<long>(rng.below(16));
      const long v = static_cast<long>(rng.below(1000));
      switch (rng.below(3)) {
        case 0: map->put1(k, v); break;
        case 1: map->remove1(k); break;
        default: map->get1(k); break;
      }
      const stm::StatsSnapshot s = map->stats();
      AbortArray delta{};
      for (std::size_t r = 0; r < kReasons; ++r) delta[r] = s.aborts[r] - prev[r];
      prev = s.aborts;
      out.abort_stream.push_back(delta);
    }
    for (long k = 0; k < 16; ++k) {
      if (auto val = map->get1(k)) out.state[k] = *val;
    }
    out.injected = policy.injected_totals();
    EXPECT_EQ(policy.leaks(), 0u);
  };

  for (const MapConfig& cfg : all_map_configs()) {
    SCOPED_TRACE(cfg.name);
    RunTrace a, b;
    run(cfg, a);
    run(cfg, b);
    EXPECT_EQ(a.injected, b.injected) << "injection counters diverged";
    EXPECT_EQ(a.abort_stream, b.abort_stream) << "abort-reason stream diverged";
    EXPECT_EQ(a.state, b.state);
  }
}
