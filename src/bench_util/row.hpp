// The one result row every bench_matrix preset emits, and its two sinks:
// CSV on stdout under one header shared by all presets (so
// scripts/plot_results.py and any spreadsheet read every preset's output
// the same way), and with --json the same rows as JSON records. A column a
// preset does not use holds "-" in the CSV and null in the JSON. Every row
// ends with the host-topology block, so output from different machines
// stays comparable.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/json.hpp"
#include "bench_util/topology.hpp"

namespace proust::bench {

struct Row {
  // What ran.
  std::string preset, family, impl;
  std::string variant;  // the preset's series label: regime, mix, policy...
  std::string mode, pin;
  std::optional<long> threads, ops_per_txn, key_range, scan_width, ca_slots;
  std::optional<double> u, zipf, scan_frac;
  // What it measured. Counts are per timed run.
  std::string stat;  // "min" or "mean": which run ms and ops_per_sec report
  std::optional<long> total_ops;
  std::optional<double> mean_ms, sd_ms, min_ms, ops_per_sec, abort_ratio;
  std::optional<double> commits, aborts, stm_accesses, ack_us;
  std::optional<long> attempts_p50, attempts_p99, attempts_max;

  /// The measurement columns of a timed result over `total` operations.
  void measure(const RunResult& r, long total, bool use_min) {
    const stm::StatsSnapshot& s = r.stats;
    const double runs = r.runs > 0 ? r.runs : 1;
    stat = use_min ? "min" : "mean";
    total_ops = total;
    mean_ms = r.mean_ms;
    sd_ms = r.sd_ms;
    min_ms = r.min_ms;
    ops_per_sec = r.ops_per_sec(total, use_min);
    abort_ratio = r.abort_ratio();
    commits = static_cast<double>(s.commits) / runs;
    aborts = static_cast<double>(s.total_aborts()) / runs;
    stm_accesses = static_cast<double>(s.reads + s.writes) / runs;
    if (s.total_calls() > 0) {
      attempts_p50 = static_cast<long>(s.attempts_percentile(0.50));
      attempts_p99 = static_cast<long>(s.attempts_percentile(0.99));
      attempts_max = static_cast<long>(s.max_attempts);
    }
  }
};

inline std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

class RowSink {
 public:
  struct Column {
    const char* name;
    std::string (*cell)(const Row&);  // "-" when the row has no value
    bool numeric;
  };

  static const std::vector<Column>& columns() {
    static const std::vector<Column> cols = {
        {"preset", [](const Row& r) { return text(r.preset); }, false},
        {"family", [](const Row& r) { return text(r.family); }, false},
        {"impl", [](const Row& r) { return text(r.impl); }, false},
        {"variant", [](const Row& r) { return text(r.variant); }, false},
        {"mode", [](const Row& r) { return text(r.mode); }, false},
        {"threads", [](const Row& r) { return num(r.threads); }, true},
        {"ops_per_txn", [](const Row& r) { return num(r.ops_per_txn); }, true},
        {"u", [](const Row& r) { return num(r.u, 3); }, true},
        {"key_range", [](const Row& r) { return num(r.key_range); }, true},
        {"zipf", [](const Row& r) { return num(r.zipf, 2); }, true},
        {"scan_frac", [](const Row& r) { return num(r.scan_frac, 3); }, true},
        {"scan_width", [](const Row& r) { return num(r.scan_width); }, true},
        {"ca_slots", [](const Row& r) { return num(r.ca_slots); }, true},
        {"pin", [](const Row& r) { return text(r.pin); }, false},
        {"stat", [](const Row& r) { return text(r.stat); }, false},
        {"total_ops", [](const Row& r) { return num(r.total_ops); }, true},
        {"mean_ms", [](const Row& r) { return num(r.mean_ms, 3); }, true},
        {"sd_ms", [](const Row& r) { return num(r.sd_ms, 3); }, true},
        {"min_ms", [](const Row& r) { return num(r.min_ms, 3); }, true},
        {"ops_per_sec", [](const Row& r) { return num(r.ops_per_sec, 1); }, true},
        {"abort_ratio", [](const Row& r) { return num(r.abort_ratio, 5); }, true},
        {"commits", [](const Row& r) { return num(r.commits, 1); }, true},
        {"aborts", [](const Row& r) { return num(r.aborts, 2); }, true},
        {"attempts_p50", [](const Row& r) { return num(r.attempts_p50); }, true},
        {"attempts_p99", [](const Row& r) { return num(r.attempts_p99); }, true},
        {"attempts_max", [](const Row& r) { return num(r.attempts_max); }, true},
        {"stm_accesses", [](const Row& r) { return num(r.stm_accesses, 1); },
         true},
        {"ack_us", [](const Row& r) { return num(r.ack_us, 2); }, true},
        {"host_cpus",
         [](const Row&) {
           return std::to_string(topo::Topology::system().cpu_count());
         },
         true},
        {"host_nodes",
         [](const Row&) {
           return std::to_string(topo::Topology::system().node_count);
         },
         true},
        {"host_smt",
         [](const Row&) {
           return std::string(topo::Topology::system().smt ? "1" : "0");
         },
         true},
    };
    return cols;
  }

  /// Rows stream to `csv` (header first) as they are added.
  explicit RowSink(std::FILE* csv) : csv_(csv) {
    std::string line;
    for (const Column& c : columns()) {
      line += (line.empty() ? "" : ",") + std::string(c.name);
    }
    std::fprintf(csv_, "%s\n", line.c_str());
  }

  void add(const Row& r) {
    std::string line;
    for (const Column& c : columns()) {
      line += (line.empty() ? "" : ",") + csv_escape(c.cell(r));
    }
    std::fprintf(csv_, "%s\n", line.c_str());
    std::fflush(csv_);
    rows_.push_back(r);
  }

  /// Write `{"label": ..., "records": [...]}`, one record per row. Returns
  /// false on I/O failure.
  bool write_json(const std::string& path, const std::string& label) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"label\": \"%s\",\n  \"records\": [",
                 JsonWriter::escape(label).c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::string rec;
      for (const Column& c : columns()) {
        const std::string v = c.cell(rows_[i]);
        rec += rec.empty() ? "{" : ", ";
        rec += "\"" + std::string(c.name) + "\": ";
        rec += v == "-"     ? "null"
               : c.numeric ? v
                           : "\"" + JsonWriter::escape(v) + "\"";
      }
      std::fprintf(f, "%s\n    %s}", i == 0 ? "" : ",", rec.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
  }

  /// RFC-4180 quoting: a field containing a comma, quote or newline is
  /// wrapped in quotes with embedded quotes doubled.
  static std::string csv_escape(const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char c : s) {
      if (c == '"') out += "\"\"";
      else out.push_back(c);
    }
    out += "\"";
    return out;
  }

 private:
  static std::string text(const std::string& s) { return s.empty() ? "-" : s; }
  static std::string num(const std::optional<long>& v) {
    return v ? std::to_string(*v) : "-";
  }
  static std::string num(const std::optional<double>& v, int decimals) {
    return v ? fmt(*v, decimals) : "-";
  }

  std::FILE* csv_;
  std::vector<Row> rows_;
};

}  // namespace proust::bench
