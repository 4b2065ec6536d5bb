// Topology detection, pin plans, harness pinning (DESIGN.md §13) and the
// bench plumbing: the CLI's rejection of bad command lines and the row
// output (CSV and JSON). Detection is tested against synthetic sysfs
// fixture trees so the assertions are exact regardless of the host: a
// two-node SMT machine, a single-CPU machine, and assorted
// malformed/missing-file trees that must degrade to the flat fallback. The
// harness pinning test runs against the real host and skips when the kernel
// refuses affinity calls (restricted cpusets, exotic sandboxes).
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/json.hpp"
#include "bench_util/row.hpp"
#include "bench_util/topology.hpp"

namespace fs = std::filesystem;
using namespace proust;

namespace {

/// A throwaway sysfs-shaped directory tree under the system temp dir.
class SysfsFixture {
 public:
  SysfsFixture() {
    root_ = fs::temp_directory_path() /
            ("proust_topo_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(counter_++));
    fs::create_directories(root_);
    root_str_ = root_.string();
  }
  SysfsFixture(const SysfsFixture&) = delete;
  SysfsFixture& operator=(const SysfsFixture&) = delete;
  ~SysfsFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  const std::string& root() const { return root_str_; }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream f(p);
    f << content;
  }

  void cpu(int id, int package, int core) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(id) + "/topology/";
    write(base + "physical_package_id", std::to_string(package) + "\n");
    write(base + "core_id", std::to_string(core) + "\n");
  }

  void node(int id, const std::string& cpulist) {
    write("devices/system/node/node" + std::to_string(id) + "/cpulist",
          cpulist + "\n");
  }

 private:
  static inline int counter_ = 0;
  fs::path root_;
  std::string root_str_;
};

/// Two nodes, two packages, SMT pairs, with node membership *interleaved*
/// by CPU id (even ids node 0, odd ids node 1) so plan ordering is not the
/// identity and the sort keys are actually exercised:
///   cpu: 0  1  2  3  4  5  6  7
///   pkg: 0  1  0  1  0  1  0  1
///  core: 0  0  1  1  0  0  1  1   (cpu4 is cpu0's SMT sibling, etc.)
///  node: 0  1  0  1  0  1  0  1
void populate_two_node_smt(SysfsFixture& fx) {
  fx.write("devices/system/cpu/online", "0-7\n");
  for (int c = 0; c < 8; ++c) fx.cpu(c, c % 2, (c / 2) % 2);
  fx.node(0, "0,2,4,6");
  fx.node(1, "1,3,5,7");
}

bench::Cli cli_of(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (std::string& a : args) argv.push_back(a.data());
  return bench::Cli(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(TopologyDetect, TwoNodeSmtParses) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 8u);
  EXPECT_EQ(t.node_count, 2u);
  EXPECT_TRUE(t.smt);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(5), 1);
  EXPECT_EQ(t.node_of(999), 0);  // unknown CPU defaults to node 0
  for (const topo::CpuInfo& c : t.cpus) {
    EXPECT_EQ(c.node, c.cpu % 2);
    EXPECT_EQ(c.package, c.cpu % 2);
    EXPECT_EQ(c.core, (c.cpu / 2) % 2);
  }
}

TEST(TopologyDetect, CpulistRangesAndSingles) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0-2,5\n");
  for (int c : {0, 1, 2, 5}) fx.cpu(c, 0, c);
  fx.node(0, "0-2,5");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 4u);
  EXPECT_EQ(t.cpus[3].cpu, 5);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.node_count, 1u);
}

TEST(TopologyDetect, SingleCpu) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0\n");
  fx.cpu(0, 0, 0);
  fx.node(0, "0");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 1u);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Compact), std::vector<int>{0});
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Scatter), std::vector<int>{0});
}

TEST(TopologyDetect, MissingRootFallsBack) {
  const topo::Topology t =
      topo::Topology::detect("/nonexistent/proust/sysfs/root");
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  ASSERT_EQ(t.cpu_count(), hw);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_FALSE(t.smt);
  for (const topo::CpuInfo& c : t.cpus) {
    EXPECT_EQ(c.node, 0);
    EXPECT_EQ(c.package, 0);
  }
}

TEST(TopologyDetect, MalformedOnlineFallsBack) {
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "banana\n");
  const topo::Topology t = topo::Topology::detect(fx.root());
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  EXPECT_EQ(t.cpu_count(), hw);
  EXPECT_EQ(t.node_count, 1u);
}

TEST(TopologyDetect, MissingPerCpuFilesDegradeGracefully) {
  // online parses but no topology/ or node/ entries exist: core defaults to
  // the CPU id (distinct cores, so no false SMT) and everything lands on
  // one node.
  SysfsFixture fx;
  fx.write("devices/system/cpu/online", "0-1\n");
  const topo::Topology t = topo::Topology::detect(fx.root());
  ASSERT_EQ(t.cpu_count(), 2u);
  EXPECT_FALSE(t.smt);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_EQ(t.cpus[0].core, 0);
  EXPECT_EQ(t.cpus[1].core, 1);
}

TEST(PinPlan, CompactFillsNodeThenSiblings) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  // Node 0 first; within it core 0's two hardware threads (0, 4) before
  // core 1's (2, 6); then node 1 the same way.
  EXPECT_EQ(t.pin_plan(topo::PinPolicy::Compact),
            (std::vector<int>{0, 4, 2, 6, 1, 5, 3, 7}));
}

TEST(PinPlan, ScatterAlternatesNodesCoresFirst) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  const std::vector<int> plan = t.pin_plan(topo::PinPolicy::Scatter);
  ASSERT_EQ(plan.size(), 8u);
  // First half: one hardware thread per physical core, alternating nodes.
  // Second half: the SMT siblings, same order.
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.node_of(plan[i]), static_cast<int>(i % 2));
  }
}

TEST(PinPlan, NoneIsEmptyAndNamesRoundTrip) {
  SysfsFixture fx;
  populate_two_node_smt(fx);
  const topo::Topology t = topo::Topology::detect(fx.root());
  EXPECT_TRUE(t.pin_plan(topo::PinPolicy::None).empty());
  for (const auto& [name, policy] : bench::Cli::kPinPolicies) {
    EXPECT_STREQ(topo::to_string(policy), name);
  }
}

TEST(HarnessPinning, RunOpsTimedBindsEveryWorkerToThePlannedCpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    GTEST_SKIP() << "sched_getaffinity unavailable";
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  // Probe on a throwaway thread so this thread's affinity is never touched.
  bool pinnable = false;
  std::thread([&] { pinnable = topo::pin_self_to(cpu); }).join();
  if (!pinnable) {
    GTEST_SKIP() << "affinity calls refused; pinning is advisory here";
  }

  constexpr int kThreads = 3;
  constexpr long kIters = 20;
  std::atomic<long> calls{0};
  std::atomic<long> misbound{0};
  bench::RunConfig cfg;
  cfg.threads = kThreads;
  cfg.total_ops = kThreads * kIters;
  cfg.warmup_runs = 1;
  cfg.timed_runs = 2;
  cfg.pin_plan = {cpu};
  bench::run_ops_timed(cfg, [&](int, Xoshiro256&) {
        cpu_set_t now;
        CPU_ZERO(&now);
        if (sched_getaffinity(0, sizeof(now), &now) != 0 ||
            CPU_COUNT(&now) != 1 || !CPU_ISSET(cpu, &now)) {
          misbound.fetch_add(1, std::memory_order_relaxed);
        }
        calls.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(calls.load(), kThreads * kIters * 3);  // 1 warm-up + 2 timed
  EXPECT_EQ(misbound.load(), 0);
}

// Each enum-valued flag parses every name in its list, keeps the default
// when absent, and exits with status 2 naming the accepted values otherwise.
TEST(Cli, ModeParsesListedNamesAndRejectsOthers) {
  for (const auto& [name, mode] : bench::Cli::kModes) {
    EXPECT_EQ(cli_of({std::string("--mode=") + name})
                  .get_enum("mode", stm::Mode::Lazy, bench::Cli::kModes),
              mode);
  }
  EXPECT_EQ(cli_of({}).get_enum("mode", stm::Mode::EagerAll,
                                bench::Cli::kModes),
            stm::Mode::EagerAll);
  EXPECT_EQ(cli_of({"--mode=eagerall,lazy"})
                .get_enums("mode", {stm::Mode::EagerWrite}, bench::Cli::kModes),
            (std::vector<stm::Mode>{stm::Mode::EagerAll, stm::Mode::Lazy}));
  EXPECT_EXIT((void)cli_of({"--mode=eager"})
                  .get_enum("mode", stm::Mode::Lazy, bench::Cli::kModes),
              ::testing::ExitedWithCode(2),
              "--mode=eager: unknown value; accepted values: lazy, "
              "eagerwrite, eagerall");
}

TEST(Cli, PinPolicyParsesListedNamesAndRejectsOthers) {
  for (const auto& [name, policy] : bench::Cli::kPinPolicies) {
    EXPECT_EQ(cli_of({std::string("--pin=") + name})
                  .get_enum("pin", topo::PinPolicy::None,
                            bench::Cli::kPinPolicies),
              policy);
  }
  EXPECT_EQ(cli_of({}).get_enum("pin", topo::PinPolicy::Scatter,
                                bench::Cli::kPinPolicies),
            topo::PinPolicy::Scatter);
  EXPECT_EQ(cli_of({"--pin=scatter,none"})
                .get_enums("pin", {topo::PinPolicy::Compact},
                           bench::Cli::kPinPolicies),
            (std::vector<topo::PinPolicy>{topo::PinPolicy::Scatter,
                                          topo::PinPolicy::None}));
  const char* const rejected =
      "--pin=explicit: unknown value; accepted values: none, compact, scatter";
  EXPECT_EXIT((void)cli_of({"--pin=explicit"})
                  .get_enum("pin", topo::PinPolicy::None,
                            bench::Cli::kPinPolicies),
              ::testing::ExitedWithCode(2), rejected);
  EXPECT_EXIT((void)cli_of({"--pin=none,explicit"})
                  .get_enums("pin", {}, bench::Cli::kPinPolicies),
              ::testing::ExitedWithCode(2), rejected);
}

// A command line the driver cannot honour exits with status 2 and names the
// flag, instead of running something else.
TEST(Cli, UnknownFlagsAndMisusedSwitchesExit2) {
  const std::vector<std::string> switches{"smoke"};
  const std::vector<std::string> values{"threads", "runs"};
  const auto parse = [&](std::vector<std::string> args) {
    std::vector<char*> argv{const_cast<char*>("bench")};
    for (std::string& a : args) argv.push_back(a.data());
    (void)bench::Cli(static_cast<int>(argv.size()), argv.data(), switches,
                     values);
  };
  parse({"--smoke", "--threads=1,2", "--runs=3"});  // accepted
  EXPECT_EXIT(parse({"--thread=1"}), ::testing::ExitedWithCode(2),
              "unknown flag --thread=1; accepted flags: --smoke, --threads, "
              "--runs");
  EXPECT_EXIT(parse({"threads=1"}), ::testing::ExitedWithCode(2),
              "unknown flag threads=1");
  EXPECT_EXIT(parse({"--smoke=1"}), ::testing::ExitedWithCode(2),
              "--smoke takes no value");
  EXPECT_EXIT(parse({"--threads"}), ::testing::ExitedWithCode(2),
              "--threads needs a value");
}

TEST(Cli, CountsMustParseAndBePositive) {
  EXPECT_EQ(cli_of({"--threads=1,4"}).get_longs("threads", {2}),
            (std::vector<long>{1, 4}));
  EXPECT_EQ(cli_of({}).get_longs("threads", {2}), std::vector<long>{2});
  EXPECT_EXIT((void)cli_of({"--threads=0"}).get_longs("threads", {1}),
              ::testing::ExitedWithCode(2), "--threads=0: must be >= 1");
  EXPECT_EXIT((void)cli_of({"--threads=1,0"}).get_longs("threads", {1}),
              ::testing::ExitedWithCode(2), "--threads=0: must be >= 1");
  EXPECT_EXIT((void)cli_of({"--runs=0"}).get_long("runs", 3, 1),
              ::testing::ExitedWithCode(2), "--runs=0: must be >= 1");
  EXPECT_EXIT((void)cli_of({"--threads=x"}).get_longs("threads", {1}),
              ::testing::ExitedWithCode(2), "--threads=x: not an integer");
  EXPECT_EXIT((void)cli_of({"--ops=5k"}).get_long("ops", 1, 1),
              ::testing::ExitedWithCode(2), "--ops=5k: not an integer");
  EXPECT_EXIT((void)cli_of({"--u=0.5,two"}).get_doubles("u", {0.5}),
              ::testing::ExitedWithCode(2), "--u=two: not a number in 0..1");
  EXPECT_EXIT((void)cli_of({"--u=1.5"}).get_doubles("u", {0.5}),
              ::testing::ExitedWithCode(2), "--u=1.5: not a number in 0..1");
}

TEST(Cli, StatAcceptsOnlyMinAndMean) {
  EXPECT_TRUE(cli_of({"--stat=min"}).get_enum("stat", false,
                                              bench::Cli::kStats));
  EXPECT_FALSE(cli_of({"--stat=mean"}).get_enum("stat", true,
                                                bench::Cli::kStats));
  EXPECT_EXIT((void)cli_of({"--stat=median"})
                  .get_enum("stat", false, bench::Cli::kStats),
              ::testing::ExitedWithCode(2),
              "--stat=median: unknown value; accepted values: mean, min");
}

TEST(Row, OneHeaderAndDashesForUnusedColumns) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  {
    bench::RowSink sink(mem);
    bench::Row r;
    r.preset = "counter";
    r.family = "counter";
    r.impl = "a,b";  // RFC-4180 quoting
    r.threads = 4;
    r.u = 0.25;
    sink.add(r);
  }
  std::fclose(mem);
  const std::string out(buf, len);
  std::free(buf);
  const std::string header = out.substr(0, out.find('\n'));
  const std::string row = out.substr(header.size() + 1);
  EXPECT_EQ(header.rfind("preset,family,impl,variant,mode,threads,", 0), 0u);
  EXPECT_NE(header.find(",host_cpus,host_nodes,host_smt"), std::string::npos);
  EXPECT_EQ(row.rfind("counter,counter,\"a,b\",-,-,4,-,0.250,-,", 0), 0u);
  EXPECT_EQ(bench::RowSink::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(bench::RowSink::csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(bench::fmt(3.14159, 3), "3.142");
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(bench::JsonWriter::escape("x\ty\nz"), "x\\u0009y\\u000az");
  EXPECT_EQ(bench::JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(bench::JsonWriter::escape(std::string("\x01", 1)), "\\u0001");

  const fs::path path = fs::temp_directory_path() / "proust_row_test.json";
  std::FILE* csv = std::tmpfile();
  ASSERT_NE(csv, nullptr);
  bench::RowSink sink(csv);
  bench::Row r;
  r.impl = "pure-stm";
  r.threads = 2;
  sink.add(r);
  ASSERT_TRUE(sink.write_json(path.string(), "x\ty"));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"label\": \"x\\u0009y\""), std::string::npos);
  EXPECT_NE(text.find("\"impl\": \"pure-stm\", \"variant\": null"),
            std::string::npos);
  EXPECT_NE(text.find("\"threads\": 2,"), std::string::npos);
  std::fclose(csv);
  std::error_code ec;
  fs::remove(path, ec);
}
