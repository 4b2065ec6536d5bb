// The JSON record schema of bench_micro_stm's trajectory runs (see
// BENCH_STM.json at the repo top level): one flat record per measured cell.
// bench_matrix writes its rows as JSON through bench_util/row.hpp, which
// shares the string escaping below.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/topology.hpp"
#include "stm/stats.hpp"

namespace proust::bench {

struct JsonRecord {
  std::string bench;     // driver name, e.g. "micro_stm"
  std::string workload;  // cell name, e.g. "write_heavy" or an impl name
  std::string mode;      // STM mode, or "" when not applicable
  int threads = 1;
  int ops_per_txn = 1;
  double write_fraction = -1;  // < 0 = not applicable
  double ops_per_sec = 0;
  double abort_ratio = 0;

  /// Optional attempt-level breakdown (starts/commits/extensions and aborts
  /// by reason) so mode ablations are diagnosable from the JSON, not
  /// just a throughput number. Call with a StatsSnapshot to attach it.
  JsonRecord& with_stats(const stm::StatsSnapshot& s) {
    stats = s;
    has_stats = true;
    return *this;
  }
  stm::StatsSnapshot stats;
  bool has_stats = false;
};

class JsonWriter {
 public:
  explicit JsonWriter(std::string label) : label_(std::move(label)) {}

  void add(JsonRecord r) { records_.push_back(std::move(r)); }

  /// Write `{"label": ..., "records": [...]}` to `path`. Returns false on
  /// I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"label\": \"%s\",\n  \"records\": [",
                 escape(label_).c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "%s\n    {\"bench\": \"%s\", \"workload\": \"%s\", "
                   "\"mode\": \"%s\", \"threads\": %d, \"ops_per_txn\": %d, "
                   "\"write_fraction\": %.3f, \"ops_per_sec\": %.1f, "
                   "\"abort_ratio\": %.5f",
                   i == 0 ? "" : ",", escape(r.bench).c_str(),
                   escape(r.workload).c_str(), escape(r.mode).c_str(),
                   r.threads, r.ops_per_txn, r.write_fraction, r.ops_per_sec,
                   r.abort_ratio);
      // Host topology in every record: entries from different machines in
      // one BENCH_STM.json stay machine-comparable.
      {
        const topo::Topology& t = topo::Topology::system();
        std::fprintf(f,
                     ", \"host\": {\"cpus\": %u, \"nodes\": %u, "
                     "\"smt\": %s}",
                     t.cpu_count(), t.node_count, t.smt ? "true" : "false");
      }
      if (r.has_stats) {
        std::fprintf(f,
                     ", \"starts\": %llu, \"commits\": %llu, "
                     "\"extensions\": %llu, \"aborts\": {",
                     static_cast<unsigned long long>(r.stats.starts),
                     static_cast<unsigned long long>(r.stats.commits),
                     static_cast<unsigned long long>(r.stats.extensions));
        bool first = true;
        for (std::size_t j = 0; j < r.stats.aborts.size(); ++j) {
          if (r.stats.aborts[j] == 0) continue;
          std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                       stm::to_string(static_cast<stm::AbortReason>(j)),
                       static_cast<unsigned long long>(r.stats.aborts[j]));
          first = false;
        }
        std::fprintf(f, "}");
        if (r.stats.total_calls() > 0) {
          std::fprintf(
              f, ", \"attempts\": {\"p50\": %llu, \"p99\": %llu, \"max\": %llu}",
              static_cast<unsigned long long>(r.stats.attempts_percentile(0.5)),
              static_cast<unsigned long long>(
                  r.stats.attempts_percentile(0.99)),
              static_cast<unsigned long long>(r.stats.max_attempts));
        }
        if (r.stats.backoff_ns > 0) {
          std::fprintf(f, ", \"wait_ns\": {\"backoff\": %llu}",
                       static_cast<unsigned long long>(r.stats.backoff_ns));
        }
        if (r.stats.gate_holds > 0) {
          std::fprintf(f,
                       ", \"gate\": {\"holds\": %llu, \"total_ns\": %llu, "
                       "\"max_ns\": %llu}",
                       static_cast<unsigned long long>(r.stats.gate_holds),
                       static_cast<unsigned long long>(r.stats.gate_ns),
                       static_cast<unsigned long long>(r.stats.gate_max_ns));
        }
        if (r.stats.total_injected() > 0) {
          std::fprintf(f, ", \"injected\": {");
          bool ifirst = true;
          for (std::size_t j = 0; j < r.stats.injected.size(); ++j) {
            if (r.stats.injected[j] == 0) continue;
            std::fprintf(f, "%s\"%s\": %llu", ifirst ? "" : ", ",
                         stm::to_string(static_cast<stm::ChaosPoint>(j)),
                         static_cast<unsigned long long>(r.stats.injected[j]));
            ifirst = false;
          }
          std::fprintf(f, "}");
        }
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
  }

  /// The body of a JSON string literal holding `s`: quote, backslash and
  /// every control character below 0x20 are escaped.
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
        continue;
      }
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

 private:
  std::string label_;
  std::vector<JsonRecord> records_;
};

}  // namespace proust::bench
