// Topology detection, pin plans, harness pinning (DESIGN.md §13) and the
// bench CLI/CSV plumbing. Detection is tested against synthetic sysfs
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
#include "bench_util/csv.hpp"
#include "bench_util/harness.hpp"
#include "common/topology.hpp"

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
  bench::run_ops_timed(
      kThreads, kIters, /*warmup_runs=*/1, /*timed_runs=*/2, /*seed=*/1,
      std::vector<int>{cpu}, [&](int, Xoshiro256&) {
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
                  .get_mode("mode", stm::Mode::Lazy),
              mode);
  }
  EXPECT_EQ(cli_of({}).get_mode("mode", stm::Mode::EagerAll),
            stm::Mode::EagerAll);
  EXPECT_EXIT((void)cli_of({"--mode=eager"}).get_mode("mode", stm::Mode::Lazy),
              ::testing::ExitedWithCode(2),
              "--mode=eager: unknown value; accepted values: lazy, "
              "eagerwrite, eagerall");
}

TEST(Cli, SchemeParsesListedNamesAndRejectsOthers) {
  for (const auto& [name, scheme] : bench::Cli::kSchemes) {
    EXPECT_EQ(cli_of({std::string("--scheme=") + name})
                  .get_scheme("scheme", stm::ClockScheme::IncOnCommit),
              scheme);
  }
  EXPECT_EQ(cli_of({}).get_scheme("scheme", stm::ClockScheme::LazyBump),
            stm::ClockScheme::LazyBump);
  EXPECT_EXIT((void)cli_of({"--scheme=pass"})
                  .get_scheme("scheme", stm::ClockScheme::IncOnCommit),
              ::testing::ExitedWithCode(2),
              "--scheme=pass: unknown value; accepted values: inc, lazybump");
}

TEST(Cli, PinPolicyParsesListedNamesAndRejectsOthers) {
  for (const auto& [name, policy] : bench::Cli::kPinPolicies) {
    EXPECT_EQ(cli_of({std::string("--pin=") + name})
                  .get_pin_policy("pin", topo::PinPolicy::None),
              policy);
  }
  EXPECT_EQ(cli_of({}).get_pin_policy("pin", topo::PinPolicy::Scatter),
            topo::PinPolicy::Scatter);
  EXPECT_EQ(cli_of({"--pin=scatter,none"})
                .get_pin_policies("pin", {topo::PinPolicy::Compact}),
            (std::vector<topo::PinPolicy>{topo::PinPolicy::Scatter,
                                          topo::PinPolicy::None}));
  const char* const rejected =
      "--pin=explicit: unknown value; accepted values: none, compact, scatter";
  EXPECT_EXIT(
      (void)cli_of({"--pin=explicit"}).get_pin_policy("pin", {}),
      ::testing::ExitedWithCode(2), rejected);
  EXPECT_EXIT((void)cli_of({"--pin=none,explicit"}).get_pin_policies("pin", {}),
              ::testing::ExitedWithCode(2), rejected);
}

TEST(Csv, RowCountMismatchThrows) {
  bench::CsvWriter csv({"a", "b"});
  csv.row({"1", "2"});
  EXPECT_THROW(csv.row({"1"}), std::invalid_argument);
  EXPECT_THROW(csv.row({"1", "2", "3"}), std::invalid_argument);
  EXPECT_EQ(csv.row_count(), 1u);
}

TEST(Csv, Rfc4180Escaping) {
  EXPECT_EQ(bench::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(bench::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(bench::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(bench::CsvWriter::escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(bench::CsvWriter::fmt(1.25, 1), "1.2");
  EXPECT_EQ(bench::CsvWriter::fmt(3.14159, 3), "3.142");
}

TEST(Csv, WritesHeaderAndHostFields) {
  std::vector<std::string> cols{"x"};
  for (const std::string& c : bench::CsvWriter::host_columns()) {
    cols.push_back(c);
  }
  bench::CsvWriter csv(cols);
  std::vector<std::string> row{"1"};
  for (const std::string& f : bench::CsvWriter::host_fields()) {
    row.push_back(f);
  }
  csv.row(row);

  const fs::path path =
      fs::temp_directory_path() / "proust_csv_test_out.csv";
  ASSERT_TRUE(csv.write(path.string()));
  std::ifstream in(path);
  std::string header, data;
  std::getline(in, header);
  std::getline(in, data);
  EXPECT_EQ(header, "x,host_cpus,host_nodes,host_smt");
  EXPECT_EQ(data.substr(0, 2), "1,");
  std::error_code ec;
  fs::remove(path, ec);
}
