// Host topology detection and the CPU orderings the bench harness pins its
// workers by (DESIGN.md §13). Part of the proust_bench_util library, not of
// libproust: the STM runtime itself is topology-blind.
//
//  - Topology::detect() parses the Linux sysfs tree (cpu online mask, core
//    and package ids, NUMA node cpulists). The sysfs root is a parameter so
//    tests can point it at synthetic fixture trees; missing or malformed
//    files degrade to a flat single-node topology sized by
//    std::thread::hardware_concurrency() — a 1-vCPU container detects as
//    one CPU on one node with no SMT, never an error.
//  - pin_plan() turns a PinPolicy into an ordered CPU list; bench worker t
//    pins to plan[t % plan.size()] (bench_util/harness.hpp).
#pragma once

#include <string>
#include <vector>

namespace proust::topo {

/// How bench workers map onto CPUs. None is the default: no affinity
/// syscalls, no plan computation.
enum class PinPolicy {
  None,     ///< leave scheduling to the OS
  Compact,  ///< fill one node (SMT siblings adjacent) before the next
  Scatter,  ///< round-robin across nodes, distinct cores before siblings
};

struct CpuInfo {
  int cpu = 0;      ///< logical CPU id (sysfs numbering)
  int node = 0;     ///< NUMA node owning the CPU
  int core = 0;     ///< core id within the package
  int package = 0;  ///< physical package (socket) id
};

struct Topology {
  std::vector<CpuInfo> cpus;  ///< online CPUs, ascending by id
  unsigned node_count = 1;    ///< max node id + 1 (>= 1)
  bool smt = false;           ///< any core exposes multiple hardware threads

  /// Parse `<sysfs_root>/devices/system/{cpu,node}`. Never throws; any
  /// parse failure yields the flat fallback topology.
  static Topology detect(const std::string& sysfs_root = "/sys");

  /// Process-wide cached detection of the real host (detect("/sys") once).
  static const Topology& system();

  unsigned cpu_count() const noexcept {
    return static_cast<unsigned>(cpus.size());
  }

  /// Node owning `cpu`, or 0 if the CPU is unknown.
  int node_of(int cpu) const noexcept;

  /// Ordered CPU list for a policy (empty for None: "do not pin").
  std::vector<int> pin_plan(PinPolicy policy) const;
};

/// Bind the calling thread to one CPU. Returns false if the kernel refuses
/// (e.g. a cpuset that excludes `cpu`); callers treat that as advisory.
bool pin_self_to(int cpu) noexcept;

/// "none"/"compact"/"scatter", the names bench_util/cli.hpp parses.
const char* to_string(PinPolicy p) noexcept;

}  // namespace proust::topo
