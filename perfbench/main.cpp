// proust_perfbench: the closed-loop benchmark program. See README.md.
//
//   proust_perfbench --workload map|sched|ledger --seed N --seconds S
//                    --trace 0|1 [--smoke] [--scratch-dir DIR] [--spans-out FILE]
//
// Prints metadata lines (#), one line per metric as
// "<workload>/<metric> <value> <unit> [note]", any check errors, and as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when the end-of-run checks pass, 1 when they fail, 2 on bad usage.
#include <sys/statfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runner.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "proust_perfbench: %s\nusage: proust_perfbench --workload "
               "map|sched|ledger --seed N --seconds S --trace 0|1 [--smoke] "
               "[--scratch-dir DIR] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config c;
  c.scratch_dir = ".bench_build/scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      c.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (a == "--workload") {
      c.workload = v;
    } else if (a == "--seed") {
      c.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      c.seconds = std::strtod(v, &end);
      if (!(c.seconds > 0 && c.seconds <= 3600)) usage("--seconds out of range");
    } else if (a == "--trace") {
      const unsigned long t = std::strtoul(v, &end, 10);
      if (t > 1) usage("--trace takes 0 or 1");
      c.trace = t == 1;
    } else if (a == "--scratch-dir") {
      c.scratch_dir = v;
    } else if (a == "--spans-out") {
      c.spans_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) {
      usage(("bad number for " + a).c_str());
    }
  }
  if (c.workload.empty()) usage("--workload is required");
  return c;
}

/// Mean cost of one steady_clock read, in ns.
double clock_read_ns() {
  constexpr int kReads = 1'000'000;
  const std::int64_t t0 = perfbench::now_ns();
  for (int i = 0; i < kReads; ++i) (void)perfbench::now_ns();
  return static_cast<double>(perfbench::now_ns() - t0) / kReads;
}

std::string fs_type(const std::string& dir) {
  struct statfs s {};
  if (::statfs(dir.c_str(), &s) != 0) return "unknown";
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(s.f_type));
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return std::string("ext2/3/4 (") + hex + ")";
    case 0x58465342: return std::string("xfs (") + hex + ")";
    case 0x9123683E: return std::string("btrfs (") + hex + ")";
    case 0x01021994: return std::string("tmpfs (") + hex + ")";
    case 0x794C7630: return std::string("overlayfs (") + hex + ")";
    default: return hex;
  }
}

void print(const Config& cfg, const Report& r, bool correct) {
  for (const std::string& m : r.meta_lines()) std::printf("# %s\n", m.c_str());
  for (const perfbench::Metric& m : r.metrics()) {
    std::printf("%s/%s %.9g %s%s%s\n", cfg.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
  }
  for (const std::string& e : r.errors()) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("check: %s\n", correct ? "ok" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const perfbench::Metric& m : r.metrics()) {
    if (m.name == "failed_ratio") continue;  // zero by design; JSON totals carry it
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  Report (*run)(const Config&) = nullptr;
  if (cfg.workload == "map") run = perfbench::run_map;
  if (cfg.workload == "sched") run = perfbench::run_sched;
  if (cfg.workload == "ledger") run = perfbench::run_ledger;
  if (run == nullptr) usage(("unknown workload " + cfg.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(cfg.scratch_dir, ec);
  if (ec) usage(("cannot create scratch dir " + cfg.scratch_dir).c_str());

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "workers=%u (closed loop)\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0, perfbench::kWorkers);
  std::printf("# host: nproc=%ld clock=steady_clock ns_per_read=%.1f wal_fs=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), clock_read_ns(),
              fs_type(cfg.scratch_dir).c_str());
  std::fflush(stdout);

  const Report r = run(cfg);
  const bool correct = r.errors().empty();
  print(cfg, r, correct);
  return correct ? 0 : 1;
}
