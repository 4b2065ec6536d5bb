// Chaos-differential matrix over the fallback gate (ctest label "cm"), with
// exponential backoff between attempts. The inter-attempt policy consumes
// nothing from the chaos decision streams, so fault-injected runs stay
// reproducible, and a single-threaded run must replay bit-exactly whether
// the retry backs off or not. The multi-threaded sweep drives the retry
// loop and the gate (exclusive attempts, shared-side FallbackGate aborts)
// under injected aborts/delays/timeouts and checks the committed state
// against a mutex-guarded reference.
//
// Reproduce a failure with PROUST_CHAOS_SEED=<printed seed>, as in
// tests/chaos_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "map_configs.hpp"
#include "stm/chaos.hpp"

using namespace proust::testing;
namespace stm = proust::stm;

namespace {

std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 0xCA71057u;
    if (const char* env = std::getenv("PROUST_CHAOS_SEED")) {
      s = std::strtoull(env, nullptr, 0);
    }
    std::fprintf(stderr,
                 "[cm-chaos] base seed %llu (override: PROUST_CHAOS_SEED)\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

struct Planned {
  int kind;
  long k, v;
};

/// Same differential harness as tests/chaos_test.cpp: randomized planned
/// transactions with the reference folded in via on_commit_locked.
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
        const int ops = 1 + static_cast<int>(rng.below(5));
        std::vector<Planned> plan;
        for (int j = 0; j < ops; ++j) {
          plan.push_back({static_cast<int>(rng.below(3)),
                          static_cast<long>(
                              rng.below(static_cast<std::uint64_t>(keys))),
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
                // See chaos_test.cpp: a no-op remove's hook is unordered
                // against concurrent writers of the same key; skipping it
                // keeps the fold exact in either serialization order.
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
}

MapConfig config_named(const std::string& name) {
  for (auto& c : all_map_configs()) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "unknown map config " << name;
  return {};
}

/// Parameter: StmOptions::fallback_after.
class CmChaosMatrixTest : public ::testing::TestWithParam<unsigned> {};

}  // namespace

TEST_P(CmChaosMatrixTest, DifferentialUnderInjection) {
  const unsigned fallback = GetParam();
  const std::uint64_t seed =
      base_seed() + static_cast<std::uint64_t>(fallback) * 31;
  SCOPED_TRACE("chaos seed " + std::to_string(seed));

  stm::StmOptions opts;
  // 0 leaves the gate off; 8 is small enough that gated attempts interleave
  // with the injected faults (ChaosInjected aborts never count toward it).
  opts.fallback_after = fallback;
  opts.lap_timeout = std::chrono::milliseconds(1);

  // Two quadrants with different conflict machinery: pure-STM conflicts
  // (lazy memo table) and Boosting-style abstract locks.
  for (const char* cfg_name : {"lazy_memo_lazystm", "eager_pess"}) {
    SCOPED_TRACE(cfg_name);
    stm::ChaosPolicy chaos(stm::ChaosConfig::standard(seed));
    chaos.install_lock_hook();
    opts.chaos = &chaos;
    auto map = config_named(cfg_name).make_with(opts);

    const long kKeys = 16;
    const auto reference = run_differential(*map, seed, 4, 100, kKeys);

    chaos.remove_lock_hook();
    expect_map_equals(*map, reference, kKeys);
    EXPECT_EQ(chaos.leaks(), 0u);
    EXPECT_GT(chaos.injected_total(), 0u);
    opts.chaos = nullptr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CmChaosMatrixTest, ::testing::Values(0u, 8u),
    [](const auto& info) {
      return std::string("backoff") +
             (info.param == 0 ? "" : "_fallback" + std::to_string(info.param));
    });

TEST(CmChaosDeterminismTest, CmPolicyLeavesDecisionStreamsUntouched) {
  // The determinism contract: switching the inter-attempt policy must not
  // shift the chaos decision streams, so a single-threaded fault-injected
  // run replays bit-exactly with or without backoff — same committed state,
  // same attempt counts, same per-point injection totals.
  const std::uint64_t seed = base_seed() + 99;
  auto run = [&](stm::CmPolicy policy, std::map<long, long>& out_state,
                 stm::StatsSnapshot& out_stats,
                 std::array<std::uint64_t, stm::kNumChaosPoints>& out_inj) {
    stm::ChaosPolicy chaos(stm::ChaosConfig::aggressive(seed));
    stm::StmOptions opts;
    opts.chaos = &chaos;
    opts.cm_policy = policy;
    auto map = config_named("lazy_memo_lazystm").make_with(opts);
    proust::Xoshiro256 rng(seed);
    for (int i = 0; i < 300; ++i) {
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
    out_inj = chaos.injected_totals();
    EXPECT_EQ(chaos.leaks(), 0u);
  };

  std::map<long, long> s_none, s_backoff;
  stm::StatsSnapshot st_none, st_backoff;
  std::array<std::uint64_t, stm::kNumChaosPoints> inj_none{}, inj_backoff{};
  run(stm::CmPolicy::None, s_none, st_none, inj_none);
  run(stm::CmPolicy::ExponentialBackoff, s_backoff, st_backoff, inj_backoff);

  EXPECT_EQ(s_none, s_backoff);
  EXPECT_EQ(st_none.starts, st_backoff.starts);
  EXPECT_EQ(st_none.commits, st_backoff.commits);
  EXPECT_EQ(st_none.total_aborts(), st_backoff.total_aborts());
  EXPECT_EQ(inj_none, inj_backoff);
  EXPECT_GT(st_none.total_injected(), 0u);
  EXPECT_EQ(st_none.backoff_ns, 0u);  // None never pauses
}
