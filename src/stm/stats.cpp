#include "stm/stats.hpp"

#include <algorithm>
#include <sstream>

namespace proust::stm {

std::uint64_t StatsSnapshot::total_aborts() const noexcept {
  std::uint64_t t = 0;
  for (auto a : aborts) t += a;
  return t;
}

std::uint64_t StatsSnapshot::total_injected() const noexcept {
  std::uint64_t t = 0;
  for (auto n : injected) t += n;
  return t;
}

double StatsSnapshot::abort_ratio() const noexcept {
  return starts == 0 ? 0.0
                     : static_cast<double>(total_aborts()) /
                           static_cast<double>(starts);
}

std::uint64_t StatsSnapshot::total_calls() const noexcept {
  std::uint64_t t = 0;
  for (auto n : attempts_hist) t += n;
  return t;
}

std::uint64_t StatsSnapshot::attempts_percentile(double p) const noexcept {
  const std::uint64_t calls = total_calls();
  if (calls == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the percentile call (1-based, ceil), then walk the buckets.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     p * static_cast<double>(calls) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < attempts_hist.size(); ++b) {
    seen += attempts_hist[b];
    if (seen >= rank) {
      const std::uint64_t bound = attempt_bucket_bound(b);
      // The top occupied bucket cannot report beyond the observed worst.
      return bound > max_attempts ? max_attempts : bound;
    }
  }
  return max_attempts;
}

std::string StatsSnapshot::to_string() const {
  std::ostringstream os;
  os << "starts=" << starts << " commits=" << commits
     << " aborts=" << total_aborts() << " reads=" << reads
     << " writes=" << writes << " extensions=" << extensions;
  if (total_calls() > 0) {
    os << " attempts{p50=" << attempts_percentile(0.50)
       << " p99=" << attempts_percentile(0.99) << " max=" << max_attempts
       << "}";
  }
  if (backoff_ns > 0) os << " wait{backoff=" << backoff_ns << "ns}";
  if (gate_holds > 0) {
    os << " gate{holds=" << gate_holds << " total=" << gate_ns
       << "ns max=" << gate_max_ns << "ns}";
  }
  if (fastpath_hits > 0) os << " fastpath{hits=" << fastpath_hits << "}";
  if (wal_publishes + wal_refused > 0) {
    os << " wal{publishes=" << wal_publishes << " records=" << wal_records
       << " bytes=" << wal_bytes << " strict_waits=" << wal_strict_waits
       << " wait=" << wal_wait_ns << "ns refused=" << wal_refused << "}";
  }
  if (total_aborts() > 0) {
    os << " [";
    bool first = true;
    for (std::size_t i = 0; i < aborts.size(); ++i) {
      if (aborts[i] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << proust::stm::to_string(static_cast<AbortReason>(i)) << "="
         << aborts[i];
    }
    os << "]";
  }
  if (total_injected() > 0) {
    os << " injected=[";
    bool first = true;
    for (std::size_t i = 0; i < injected.size(); ++i) {
      if (injected[i] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << proust::stm::to_string(static_cast<ChaosPoint>(i)) << "="
         << injected[i];
    }
    os << "]";
  }
  return os.str();
}

StatsSnapshot Stats::snapshot() const {
  StatsSnapshot s;
  const unsigned n = ThreadRegistry::high_water();
  // Relaxed per-field loads (see the Cell accessor comment in stats.hpp):
  // the watchdog snapshots concurrently with running workers, so a snapshot
  // is a consistent-enough monotone view, not an atomic cut across cells.
  for (unsigned i = 0; i < n && i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    s.starts += ld(c.starts);
    s.commits += ld(c.commits);
    s.reads += ld(c.reads);
    s.writes += ld(c.writes);
    s.extensions += ld(c.extensions);
    for (std::size_t j = 0; j < c.aborts.size(); ++j) {
      s.aborts[j] += ld(c.aborts[j]);
    }
    for (std::size_t j = 0; j < c.injected.size(); ++j) {
      s.injected[j] += ld(c.injected[j]);
    }
    for (std::size_t j = 0; j < c.attempts_hist.size(); ++j) {
      s.attempts_hist[j] += ld(c.attempts_hist[j]);
    }
    s.max_attempts = std::max(s.max_attempts, ld(c.max_attempts));
    s.backoff_ns += ld(c.backoff_ns);
    s.gate_holds += ld(c.gate_holds);
    s.gate_ns += ld(c.gate_ns);
    s.gate_max_ns = std::max(s.gate_max_ns, ld(c.gate_max_ns));
    s.fastpath_hits += ld(c.fastpath_hits);
    s.wal_publishes += ld(c.wal_publishes);
    s.wal_records += ld(c.wal_records);
    s.wal_bytes += ld(c.wal_bytes);
    s.wal_strict_waits += ld(c.wal_strict_waits);
    s.wal_wait_ns += ld(c.wal_wait_ns);
    s.wal_refused += ld(c.wal_refused);
  }
  return s;
}

void Stats::reset() {
  // Field-wise relaxed stores rather than `c = Cell{}`: a watchdog may still
  // be snapshotting when a harness resets between runs.
  for (auto& c : cells_) {
    st(c.starts, 0);
    st(c.commits, 0);
    st(c.reads, 0);
    st(c.writes, 0);
    st(c.extensions, 0);
    for (auto& a : c.aborts) st(a, 0);
    for (auto& n2 : c.injected) st(n2, 0);
    for (auto& h : c.attempts_hist) st(h, 0);
    st(c.max_attempts, 0);
    st(c.backoff_ns, 0);
    st(c.gate_holds, 0);
    st(c.gate_ns, 0);
    st(c.gate_max_ns, 0);
    st(c.fastpath_hits, 0);
    st(c.wal_publishes, 0);
    st(c.wal_records, 0);
    st(c.wal_bytes, 0);
    st(c.wal_strict_waits, 0);
    st(c.wal_wait_ns, 0);
    st(c.wal_refused, 0);
  }
}

}  // namespace proust::stm
