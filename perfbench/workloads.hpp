// The three workloads, one translation unit each.
#pragma once

#include "harness.hpp"

namespace perfbench {

struct Config;

Report run_map(const Config& cfg);
Report run_sched(const Config& cfg);
Report run_ledger(const Config& cfg);

}  // namespace perfbench
