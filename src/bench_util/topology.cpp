#include "bench_util/topology.hpp"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

namespace proust::topo {
namespace {

/// Parse a sysfs cpulist ("0-3,5,8-9") into CPU ids. Returns false on any
/// token that is not a number or a range.
bool parse_cpulist(const std::string& text, std::vector<int>& out) {
  std::size_t i = 0;
  const auto num = [&](long& v) {
    if (i >= text.size() || std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      return false;
    }
    v = 0;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      v = v * 10 + (text[i++] - '0');
    }
    return true;
  };
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  if (i >= text.size()) return false;
  for (;;) {
    long lo = 0;
    if (!num(lo)) return false;
    long hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (!num(hi) || hi < lo) return false;
    }
    for (long c = lo; c <= hi; ++c) out.push_back(static_cast<int>(c));
    if (i >= text.size() || text[i] == '\n' ||
        std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      return true;
    }
    if (text[i] != ',') return false;
    ++i;
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f.is_open()) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool read_int(const std::string& path, int& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  try {
    out = std::stoi(text);
  } catch (...) {
    return false;
  }
  return true;
}

Topology fallback_topology() {
  Topology t;
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  t.cpus.reserve(n);
  for (unsigned c = 0; c < n; ++c) {
    t.cpus.push_back(CpuInfo{static_cast<int>(c), 0, static_cast<int>(c), 0});
  }
  t.node_count = 1;
  t.smt = false;
  return t;
}

}  // namespace

Topology Topology::detect(const std::string& sysfs_root) {
  const std::string cpu_dir = sysfs_root + "/devices/system/cpu";
  std::string online;
  std::vector<int> cpu_ids;
  if (!read_file(cpu_dir + "/online", online) ||
      !parse_cpulist(online, cpu_ids) || cpu_ids.empty()) {
    return fallback_topology();
  }

  Topology t;
  t.cpus.reserve(cpu_ids.size());
  for (int c : cpu_ids) {
    CpuInfo info;
    info.cpu = c;
    const std::string base = cpu_dir + "/cpu" + std::to_string(c) + "/topology";
    if (!read_int(base + "/core_id", info.core)) info.core = c;
    if (!read_int(base + "/physical_package_id", info.package)) {
      info.package = 0;
    }
    t.cpus.push_back(info);
  }

  // Node ownership from node<N>/cpulist. Node ids are usually dense from 0;
  // scan a generous range and tolerate short gaps.
  const std::string node_dir = sysfs_root + "/devices/system/node";
  int max_node = -1;
  int misses = 0;
  for (int n = 0; misses < 8; ++n) {
    std::string list;
    if (!read_file(node_dir + "/node" + std::to_string(n) + "/cpulist",
                   list)) {
      ++misses;
      continue;
    }
    misses = 0;
    std::vector<int> owned;
    if (!parse_cpulist(list, owned)) continue;
    for (int c : owned) {
      for (CpuInfo& info : t.cpus) {
        if (info.cpu == c) info.node = n;
      }
    }
    if (n > max_node) max_node = n;
  }
  t.node_count = max_node >= 0 ? static_cast<unsigned>(max_node) + 1 : 1;

  // SMT: two online CPUs sharing a (package, core) pair.
  std::map<std::pair<int, int>, int> per_core;
  for (const CpuInfo& info : t.cpus) {
    if (++per_core[{info.package, info.core}] > 1) t.smt = true;
  }
  return t;
}

const Topology& Topology::system() {
  static const Topology t = detect("/sys");
  return t;
}

int Topology::node_of(int cpu) const noexcept {
  for (const CpuInfo& info : cpus) {
    if (info.cpu == cpu) return info.node;
  }
  return 0;
}

std::vector<int> Topology::pin_plan(PinPolicy policy) const {
  if (policy == PinPolicy::None) return {};
  // smt_rank: position among hardware threads of the same (package, core) —
  // 0 is the first thread of each physical core.
  struct Key {
    CpuInfo info;
    int smt_rank = 0;
  };
  std::vector<Key> keys;
  keys.reserve(cpus.size());
  std::map<std::pair<int, int>, int> seen;
  std::vector<CpuInfo> ordered = cpus;
  std::sort(ordered.begin(), ordered.end(),
            [](const CpuInfo& a, const CpuInfo& b) { return a.cpu < b.cpu; });
  for (const CpuInfo& info : ordered) {
    keys.push_back(Key{info, seen[{info.package, info.core}]++});
  }
  if (policy == PinPolicy::Compact) {
    // One node at a time, siblings of a core adjacent: consecutive workers
    // share caches, maximizing locality for communicating neighbours.
    std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return std::tie(a.info.node, a.info.package, a.info.core, a.smt_rank) <
             std::tie(b.info.node, b.info.package, b.info.core, b.smt_rank);
    });
    std::vector<int> plan;
    plan.reserve(keys.size());
    for (const Key& k : keys) plan.push_back(k.info.cpu);
    return plan;
  }
  // Scatter: distinct physical cores everywhere before any SMT sibling,
  // alternating nodes — maximizes per-thread cache and memory bandwidth at
  // low thread counts.
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.smt_rank, a.info.node, a.info.package, a.info.core) <
           std::tie(b.smt_rank, b.info.node, b.info.package, b.info.core);
  });
  std::vector<std::vector<int>> by_node;
  for (const Key& k : keys) {
    const auto n = static_cast<std::size_t>(k.info.node);
    if (by_node.size() <= n) by_node.resize(n + 1);
    by_node[n].push_back(k.info.cpu);
  }
  std::vector<int> plan;
  plan.reserve(keys.size());
  for (std::size_t round = 0; plan.size() < keys.size(); ++round) {
    for (const std::vector<int>& node_cpus : by_node) {
      if (round < node_cpus.size()) plan.push_back(node_cpus[round]);
    }
  }
  return plan;
}

bool pin_self_to(int cpu) noexcept {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

const char* to_string(PinPolicy p) noexcept {
  switch (p) {
    case PinPolicy::None: return "none";
    case PinPolicy::Compact: return "compact";
    case PinPolicy::Scatter: return "scatter";
  }
  return "?";
}

}  // namespace proust::topo
