// The closed loop every workload runs through: generate inputs, then per
// episode time the set-up, run the workers over a warm-up and a share of the
// measured window while the main thread samples stationarity, and check the
// end state; finally turn what was recorded into end-to-end metrics
// (untraced) or per-layer metrics (traced).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "stm/stats.hpp"
#include "stm/stm.hpp"
#include "stm/wal.hpp"

namespace perfbench {

/// Closed-loop clients, one thread each.
inline constexpr unsigned kWorkers = 3;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // tiny structures, short warm-up
  std::string scratch_dir;  // WAL segments and probe files go below this
  std::string spans_out;    // traced run: write retained spans here
};

/// Every per-layer metric, in print order. A traced run prints all of them;
/// a layer the workload does not cross reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"containers.hashmap_get_ns", "ns"},
    {"containers.hashmap_put_ns", "ns"},
    {"containers.heap_cycle_ns", "ns"},
    {"containers.hamt_put_ns", "ns"},
    {"containers.hamt_get_ns", "ns"},
    {"containers.snapshot_ns", "ns"},
    {"core.map_get_us", "us"},
    {"core.map_put_us", "us"},
    {"core.map_remove_us", "us"},
    {"core.pq_remove_min_us", "us"},
    {"core.pq_insert_us", "us"},
    {"core.pq_min_us", "us"},
    {"core.trie_put_us", "us"},
    {"core.trie_get_us", "us"},
    {"core.counter_incr_us", "us"},
    {"stm.commit_us", "us"},
    {"stm.self_us", "us"},
    {"stm.reads_per_call", "1/call"},
    {"stm.writes_per_call", "1/call"},
    {"stm.extensions_per_call", "1/call"},
    {"stm.attempts_per_call", "1/call"},
    {"stm.abort_ratio", "ratio"},
    {"stm.aborts.validation", "1/call"},
    {"stm.aborts.read_locked", "1/call"},
    {"stm.aborts.read_version", "1/call"},
    {"stm.aborts.write_locked", "1/call"},
    {"stm.aborts.visible_reader", "1/call"},
    {"stm.wasted_us_per_call", "us"},
    {"stm.backoff_us_per_call", "us"},
    {"stm.wal.records_per_fsync", "count"},
    {"stm.wal.fsyncs_per_s", "1/s"},
    {"stm.wal.bytes_per_commit", "B"},
    {"stm.wal.lag_epochs", "count"},
    {"stm.wal.fsync_us", "us"},
    {"stm.wal.recover_s", "s"},
    {"traced.calls_per_s", "1/s"},
};

/// The core.* metric of each wrapper span kind (nullptr: not a wrapper).
inline constexpr std::array<const char*, kKinds> kWrapperMetric = {
    nullptr,
    nullptr,
    "core.map_get_us",
    "core.map_put_us",
    "core.map_remove_us",
    "core.pq_remove_min_us",
    "core.pq_insert_us",
    "core.pq_min_us",
    "core.trie_get_us",
    "core.trie_put_us",
    "core.counter_incr_us",
};

/// Median per-op time, in ns, of `batches` timed batches of `per_batch`
/// calls of `f(i)` (i counts calls). Batching keeps the ~20-40 ns clock read
/// out of the per-op figure.
template <class F>
double batched_ns(int batches, int per_batch, F&& f) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<std::size_t>(batches));
  std::uint64_t i = 0;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int j = 0; j < per_batch; ++j) f(i++);
    per_op.push_back(static_cast<double>(now_ns() - t0) / per_batch);
  }
  std::nth_element(per_op.begin(), per_op.begin() + per_op.size() / 2,
                   per_op.end());
  return per_op[per_op.size() / 2];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline std::string fmt(const char* f, double a, double b = 0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// A latency percentile: the median over episodes of each episode's
/// percentile, printed with the sample count and the fewest samples beyond
/// it in any episode; flagged when that is under ten.
inline void add_percentile(Report& r, const std::string& name,
                           const std::vector<Histogram>& per_episode, double q) {
  std::vector<double> values;
  std::uint64_t n = 0;
  std::uint64_t beyond = ~std::uint64_t{0};
  for (const Histogram& h : per_episode) {
    values.push_back(h.quantile(q) / 1000.0);
    n += h.count();
    beyond = std::min(beyond, h.beyond(q));
  }
  std::string note = "median of " + std::to_string(values.size()) +
                     " episodes; n=" + std::to_string(n) +
                     " min beyond=" + std::to_string(beyond);
  if (beyond < 10) note += " FEW-SAMPLES-BEYOND";
  r.add(name, median(values), "us", note);
}

namespace detail {

struct ThreadResult {
  Histogram update;
  Histogram query;
  std::vector<std::uint64_t> per_interval;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Window {
  std::int64_t start;
  std::int64_t end;
  std::int64_t interval;
};

template <class W, bool Traced>
void worker_loop(W& w, const std::vector<Op>& ops, const Window& win,
                 typename W::Local& local, ThreadResult& r,
                 Trace<Traced>& trace) {
  const std::size_t mask = ops.size() - 1;
  for (std::size_t i = 0;; ++i) {
    const Op& op = ops[i & mask];
    const std::int64_t t0 = now_ns();
    if (t0 >= win.end) break;
    trace.begin_call(t0, t0 >= win.start);
    bool ok = true;
    try {
      w.template call<Traced>(op, local, trace);
    } catch (...) {
      ok = false;
    }
    const std::int64_t t1 = now_ns();
    const bool counted = t1 >= win.start && t1 < win.end;
    trace.end_call(t1, counted);
    if (!counted) continue;
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      continue;
    }
    (op.update ? r.update : r.query).add(t1 - t0);
    ++r.per_interval[static_cast<std::size_t>((t1 - win.start) / win.interval)];
  }
}

/// Per-call figures of the traced run, from the retained spans.
struct TraceSummary {
  std::vector<Histogram> wrapper = std::vector<Histogram>(kKinds);
  Histogram commit;  // last body exit -> call return
  Histogram self;    // call minus all body time
  std::uint64_t calls = 0;
};

inline void summarize(const std::vector<Span>& spans, TraceSummary& s) {
  std::size_t i = 0;
  while (i < spans.size() && spans[i].kind != Kind::Call) ++i;  // ring cut
  while (i < spans.size()) {
    const Span& call = spans[i++];
    std::int64_t body = 0;
    std::int64_t last_body_end = call.start;
    for (; i < spans.size() && spans[i].kind != Kind::Call; ++i) {
      const Span& sp = spans[i];
      if (sp.kind == Kind::Attempt) {
        body += sp.end - sp.start;
        last_body_end = sp.end;
      } else {
        s.wrapper[static_cast<std::size_t>(sp.kind)].add(sp.end - sp.start);
      }
    }
    s.commit.add(call.end - last_body_end);
    s.self.add(call.end - call.start - body);
    ++s.calls;
  }
}

inline bool write_spans(const std::string& path,
                        const std::vector<std::vector<Span>>& per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::uint64_t total = 0;
  for (const auto& v : per_thread) total += v.size();
  std::fprintf(f, "perfbench-spans v1 records=%llu record_bytes=%zu\n",
               static_cast<unsigned long long>(total), sizeof(Span));
  bool ok = true;
  for (const auto& v : per_thread) {
    ok = ok && std::fwrite(v.data(), sizeof(Span), v.size(), f) == v.size();
  }
  return std::fclose(f) == 0 && ok;
}

inline double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Counter deltas over the measured windows, summed across episodes.
struct Counts {
  proust::stm::StatsSnapshot stm;  // max_attempts is the maximum, not a sum
  std::uint64_t wal_records = 0;
  std::uint64_t fsyncs = 0;

  void add(const proust::stm::StatsSnapshot& a,
           const proust::stm::StatsSnapshot& b) {
    stm.starts += b.starts - a.starts;
    stm.commits += b.commits - a.commits;
    stm.reads += b.reads - a.reads;
    stm.writes += b.writes - a.writes;
    stm.extensions += b.extensions - a.extensions;
    for (std::size_t i = 0; i < stm.aborts.size(); ++i) {
      stm.aborts[i] += b.aborts[i] - a.aborts[i];
    }
    stm.backoff_ns += b.backoff_ns - a.backoff_ns;
    stm.wal_publishes += b.wal_publishes - a.wal_publishes;
    stm.wal_bytes += b.wal_bytes - a.wal_bytes;
    stm.max_attempts = std::max(stm.max_attempts, b.max_attempts);
  }
  void add(const proust::stm::WalStats& a, const proust::stm::WalStats& b) {
    wal_records += b.records - a.records;
    fsyncs += b.fsyncs - a.fsyncs;
  }
};

}  // namespace detail

/// Run workload W (see map.cpp for the interface it implements) under `cfg`.
///
/// The window is split over ten episodes, each with a fresh set-up,
/// fresh worker threads, its own warm-up and its own end-of-run check. The
/// contention pattern a run settles into (which worker backs off, how the
/// allocator's free lists line up) lasts as long as the threads do, so one
/// long episode reports whichever pattern it drew; medians over episodes
/// and intervals do not.
template <class W>
Report run(const Config& cfg) {
  Report rep;
  W w(cfg);
  w.describe(rep);

  // Inputs first, so no timed phase pays for generating them.
  const std::size_t ring = cfg.smoke ? std::size_t{1} << 12 : W::kOpsPerThread;
  std::vector<std::vector<Op>> ops(kWorkers);
  for (unsigned t = 0; t < kWorkers; ++t) {
    Rng rng(cfg.seed * 0x100000001B3ULL + t + 1);
    ops[t].reserve(ring);
    for (std::size_t i = 0; i < ring; ++i) ops[t].push_back(w.make_op(rng));
  }
  Rng prep(cfg.seed ^ 0x5EED5EED5EEDULL);
  w.generate(prep);

  constexpr int kIntervals = 60;
  const int episodes = cfg.smoke ? 1 : 10;
  const auto episode_ns = static_cast<std::int64_t>(cfg.seconds * 1e9) / episodes;
  const std::int64_t warmup_ns = cfg.smoke ? 100'000'000 : 300'000'000;
  const std::int64_t interval_ns = episode_ns / (kIntervals / episodes);

  std::vector<Trace<true>> traces;
  if (cfg.trace) {
    const std::size_t cap = cfg.smoke ? std::size_t{1} << 14 : std::size_t{1} << 19;
    for (unsigned t = 0; t < kWorkers; ++t) traces.emplace_back(cap, t);
  }
  std::vector<double> rates;  // committed calls/s of every interval
  std::vector<Histogram> update(episodes), query(episodes);
  std::vector<std::uint64_t> per_worker(kWorkers, 0);
  detail::Counts counts;
  std::vector<double> lag;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::vector<double> setup_s;
  bool has_wal = false;

  for (int e = 0; e < episodes; ++e) {
    if (e > 0) w.teardown();
    const std::int64_t t0 = now_ns();
    w.setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    has_wal = w.wal() != nullptr;
    const std::int64_t begin = now_ns();
    const detail::Window win{begin + warmup_ns, begin + warmup_ns + episode_ns,
                             interval_ns};
    std::vector<detail::ThreadResult> results(kWorkers);
    for (auto& r : results) r.per_interval.assign(kIntervals / episodes + 1, 0);
    std::vector<typename W::Local> locals(kWorkers);
    proust::stm::StatsSnapshot st0, st1;
    proust::stm::WalStats ws0, ws1;
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&, t] {
          if (cfg.trace) {
            detail::worker_loop<W, true>(w, ops[t], win, locals[t], results[t],
                                         traces[t]);
          } else {
            Trace<false> off;
            detail::worker_loop<W, false>(w, ops[t], win, locals[t], results[t],
                                          off);
          }
        });
      }
      auto sleep_to = [](std::int64_t t) {
        const std::int64_t d = t - now_ns();
        if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
      };
      sleep_to(win.start);
      st0 = w.stm().stats().snapshot();
      if (has_wal) ws0 = w.wal()->stats();
      // Stationarity and WAL lag, sampled every 20 ms through the window.
      for (std::int64_t t = win.start + 20'000'000; t < win.end; t += 20'000'000) {
        sleep_to(t);
        std::string why;
        if (!w.stationary(why) && violations++ == 0) first_violation = why;
        if (has_wal) {
          lag.push_back(static_cast<double>(w.wal()->published_epoch() -
                                            w.wal()->durable_epoch()));
        }
      }
      sleep_to(win.end);
      st1 = w.stm().stats().snapshot();
      if (has_wal) ws1 = w.wal()->stats();
    }  // jthreads join here
    counts.add(st0, st1);
    if (has_wal) counts.add(ws0, ws1);
    w.check(locals, cfg.trace, rep);

    std::vector<std::uint64_t> totals(kIntervals / episodes, 0);
    for (unsigned t = 0; t < kWorkers; ++t) {
      const detail::ThreadResult& r = results[t];
      update[e].merge(r.update);
      query[e].merge(r.query);
      rep.attempted += r.attempted;
      rep.failed += r.failed;
      per_worker[t] += r.attempted;
      for (std::size_t i = 0; i < totals.size(); ++i) totals[i] += r.per_interval[i];
    }
    for (std::uint64_t n : totals) {
      rates.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(interval_ns));
    }
  }
  w.teardown();
  if (violations > 0) {
    rep.error("stationarity violated in " + std::to_string(violations) +
              " samples; first: " + first_violation);
  }
  if (!rep.errors().empty()) rep.failed = rep.attempted;

  const double calls_per_s = median(rates);
  double committed = 0;
  std::string per_interval = "committed calls/s per interval:";
  for (double x : rates) {
    per_interval += " " + std::to_string(std::lround(x));
    committed += x * static_cast<double>(interval_ns) / 1e9;
  }
  rep.meta(per_interval);
  const std::string rate_note = fmt("median of %.0f intervals; mean %.1f",
                                    static_cast<double>(rates.size()),
                                    committed / cfg.seconds);
  const proust::stm::StatsSnapshot& st = counts.stm;
  rep.meta(fmt("stm over the windows: attempts/call %.4f, abort ratio %.4f",
               detail::per(st.starts, st.commits),
               detail::per(st.total_aborts(), st.starts)) +
           fmt(", backoff us/call %.3f, max attempts %.0f",
               detail::per(st.backoff_ns, st.commits) / 1000.0,
               static_cast<double>(st.max_attempts)));
  std::string workers = "calls per worker:";
  for (std::uint64_t n : per_worker) workers += " " + std::to_string(n);
  rep.meta(workers);

  if (!cfg.trace) {
    rep.add("calls_per_s", calls_per_s, "1/s", rate_note);
    add_percentile(rep, "update_p50_us", update, 0.50);
    add_percentile(rep, "update_p99_us", update, 0.99);
    add_percentile(rep, "query_p50_us", query, 0.50);
    add_percentile(rep, "query_p99_us", query, 0.99);
    rep.add("setup_s", median(setup_s), "s",
            "median of " + std::to_string(setup_s.size()) + " set-ups");
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    rep.add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
    rep.add("failed_ratio", detail::per(rep.failed, rep.attempted), "ratio",
            "failed=" + std::to_string(rep.failed) +
                " attempted=" + std::to_string(rep.attempted) +
                "; carried by the JSON totals, not a BENCHMARK.json metric");
    return rep;
  }

  // ---- traced run: per-layer metrics ----
  for (const LayerMetric& m : kLayerMetrics) rep.add(m.name, 0, m.unit);
  rep.set("traced.calls_per_s", calls_per_s, rate_note);

  detail::TraceSummary ts;
  std::vector<std::vector<Span>> kept;
  std::int64_t wasted_ns = 0;
  std::uint64_t traced_calls = 0;
  for (const Trace<true>& t : traces) {
    kept.push_back(t.spans());
    detail::summarize(kept.back(), ts);
    wasted_ns += t.wasted_ns();
    traced_calls += t.counted_calls();
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Histogram& h = ts.wrapper[k];
    if (kWrapperMetric[k] != nullptr && h.count() > 0) {
      rep.set(kWrapperMetric[k], h.quantile(0.5) / 1000.0,
              "p50, n=" + std::to_string(h.count()));
    }
  }
  const std::string calls_note = "p50 over " + std::to_string(ts.calls) + " traced calls";
  rep.set("stm.commit_us", ts.commit.quantile(0.5) / 1000.0, calls_note);
  rep.set("stm.self_us", ts.self.quantile(0.5) / 1000.0, calls_note);

  using proust::stm::AbortReason;
  const std::string base = "base: " + std::to_string(st.commits) + " committed calls";
  rep.set("stm.reads_per_call", detail::per(st.reads, st.commits), base);
  rep.set("stm.writes_per_call", detail::per(st.writes, st.commits), base);
  rep.set("stm.extensions_per_call", detail::per(st.extensions, st.commits), base);
  rep.set("stm.attempts_per_call", detail::per(st.starts, st.commits), base);
  rep.set("stm.abort_ratio", detail::per(st.total_aborts(), st.starts),
          "base: " + std::to_string(st.starts) + " attempts");
  const std::pair<const char*, AbortReason> reasons[] = {
      {"stm.aborts.validation", AbortReason::ValidationFailed},
      {"stm.aborts.read_locked", AbortReason::ReadLocked},
      {"stm.aborts.read_version", AbortReason::ReadVersion},
      {"stm.aborts.write_locked", AbortReason::WriteLocked},
      {"stm.aborts.visible_reader", AbortReason::VisibleReader},
  };
  for (const auto& [name, reason] : reasons) {
    const std::uint64_t n = st.aborts[static_cast<std::size_t>(reason)];
    rep.set(name, detail::per(n, st.commits), std::to_string(n) + " aborts; " + base);
  }
  rep.set("stm.backoff_us_per_call", detail::per(st.backoff_ns, st.commits) / 1000.0, base);
  rep.set("stm.wasted_us_per_call",
          detail::per(1, traced_calls) * static_cast<double>(wasted_ns) / 1000.0,
          "body time of aborted attempts; base: " + std::to_string(traced_calls) +
              " traced calls");

  if (has_wal) {
    rep.set("stm.wal.records_per_fsync", detail::per(counts.wal_records, counts.fsyncs),
            std::to_string(counts.fsyncs) + " fsyncs");
    rep.set("stm.wal.fsyncs_per_s", static_cast<double>(counts.fsyncs) / cfg.seconds);
    rep.set("stm.wal.bytes_per_commit", detail::per(st.wal_bytes, st.wal_publishes),
            std::to_string(st.wal_publishes) + " publishing commits");
    rep.set("stm.wal.lag_epochs", median(lag),
            "median of " + std::to_string(lag.size()) + " samples");
  }
  w.layers(rep);

  if (!cfg.spans_out.empty() && !detail::write_spans(cfg.spans_out, kept)) {
    rep.error("could not write spans to " + cfg.spans_out);
  }
  return rep;
}

}  // namespace perfbench
