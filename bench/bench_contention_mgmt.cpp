// Contention-management sweep: inter-attempt policy (randomized exponential
// backoff vs. immediate retry, the livelock ablation) x thread count, on a
// deliberately vicious workload — every transaction writes, all keys hot.
// §7 attributes the design space's livelock pathologies to weak CM
// coupling; the throughput column shows what backoff buys at each
// concurrency level, and the attempts{p50,p99,max} columns show the
// starvation story. Neither policy bounds the tail by itself: --fallback=N
// arms the irrevocable gate, which caps every call at N + 1 attempts on the
// Lazy STM this bench runs.
//
// --json=<path> emits machine-readable records (bench_util/json.hpp) with
// the full abort-reason breakdown, the attempt-histogram percentiles, the
// backoff wait total and the gate holds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/adapters.hpp"
#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/json.hpp"
#include "bench_util/table.hpp"

using namespace proust;
using namespace proust::bench;

namespace {

/// Standalone runner (no adapter-base) so options reach the Stm.
struct OptionedMap {
  stm::Stm stm;
  core::OptimisticLap<long> lap;
  core::TxnHashMap<long, long, core::OptimisticLap<long>> map;

  OptionedMap(stm::Mode mode, stm::StmOptions opts, std::size_t ca)
      : stm(mode, opts), lap(stm, ca), map(lap) {}

  template <class Body>
  void txn(Body&& body) {
    stm.atomically([&](stm::Txn& tx) {
      TxView<decltype(map)> view{map, tx};
      body(view);
    });
  }
  void prefill(long k, long v) { map.unsafe_put(k, v); }
  stm::StatsSnapshot stats() { return stm.stats().snapshot(); }
  void reset_stats() { stm.stats().reset(); }
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  RunConfig cfg;
  cfg.total_ops = cli.get_long("ops", 40000);
  cfg.key_range = cli.get_long("key-range", 32);  // hot keys
  cfg.write_fraction = cli.get_double("u", 1.0);  // every op mutates
  cfg.ops_per_txn = static_cast<int>(cli.get_long("o", 8));
  cfg.warmup_runs = static_cast<int>(cli.get_long("warmup", 1));
  cfg.timed_runs = static_cast<int>(cli.get_long("runs", 2));
  cfg.pin_plan = topo::Topology::system().pin_plan(
      cli.get_pin_policy("pin", topo::PinPolicy::None));
  const bool use_min = cli.get("stat", "mean") == "min";
  const auto threads = cli.get_longs("threads", {1, 2, 4, 8, 16});
  // 0 keeps the gate out of the comparison: nothing then bounds the retry
  // tail. Set e.g. --fallback=16 to measure the gate's bound and its
  // serialization cost.
  const auto fallback = static_cast<unsigned>(cli.get_long("fallback", 0));

  const stm::CmPolicy policies[] = {stm::CmPolicy::ExponentialBackoff,
                                    stm::CmPolicy::None};

  std::printf("# Contention management under saturation: policy x threads "
              "(u=%.2f, o=%d, keys=%ld, fallback=%u)\n",
              cfg.write_fraction, cfg.ops_per_txn, cfg.key_range, fallback);
  Table table({"cm-policy", "t", "ms", "Kops/s", "abort%", "p50", "p99",
               "max"});
  JsonWriter json(cli.get("label", "pr5-contention"));

  for (long t : threads) {
    for (const stm::CmPolicy policy : policies) {
      stm::StmOptions opts;
      opts.cm_policy = policy;
      opts.fallback_after = fallback;
      OptionedMap m(stm::Mode::Lazy, opts, 1024);
      prefill_half(m, cfg.key_range);
      cfg.threads = static_cast<int>(t);
      const RunResult r = run_map_throughput(m, cfg);
      const stm::StatsSnapshot& s = r.stats;

      const double shown_ops_s = use_min ? r.ops_per_sec_min(cfg.total_ops)
                                         : r.ops_per_sec(cfg.total_ops);
      table.row(
          {std::string(stm::to_string(policy)), std::to_string(t),
           Table::fmt(use_min ? r.min_ms : r.mean_ms, 1),
           Table::fmt(shown_ops_s / 1e3, 0),
           Table::fmt(100.0 * r.abort_ratio(), 1),
           std::to_string(s.attempts_percentile(0.50)),
           std::to_string(s.attempts_percentile(0.99)),
           std::to_string(s.max_attempts)});

      JsonRecord rec;
      rec.bench = "contention_mgmt";
      rec.workload = stm::to_string(policy);
      rec.mode = stm::to_string(stm::Mode::Lazy);
      rec.threads = static_cast<int>(t);
      rec.ops_per_txn = cfg.ops_per_txn;
      rec.write_fraction = cfg.write_fraction;
      rec.ops_per_sec = shown_ops_s;
      rec.abort_ratio = r.abort_ratio();
      rec.with_stats(s);
      json.add(std::move(rec));
    }
    std::printf("\n");
  }

  if (cli.has("json")) {
    const std::string path = cli.get("json", "BENCH_CM.json");
    if (!json.write(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
