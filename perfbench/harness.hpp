// Shared machinery of the closed-loop benchmark (see README.md): the seeded
// input generator, the clock, latency histograms, the span tracer of the
// traced run, and the metric report every workload fills in.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ generator --

/// SplitMix64. The benchmark owns its generator: the library only ever sees
/// the keys, amounts and periods drawn from it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Zipf(theta) over [0, n) by inverse-CDF lookup; 0 is the hottest value.
/// The table is built once, before any clock starts.
class Zipf {
 public:
  Zipf(std::uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t i = 0; i < n; ++i) sum += std::pow(i + 1.0, -theta);
    double acc = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      acc += std::pow(i + 1.0, -theta) / sum;
      cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
  }

  std::uint32_t sample(Rng& rng) const {
    const double u = rng.uniform();  // < 1.0 == cdf_.back()
    return static_cast<std::uint32_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// One generated `atomically` call. `update` picks its shape; `k` holds its
/// keys (job ids, accounts) and `arg` its value, period or amount.
struct Op {
  std::uint32_t k[4];
  std::int64_t arg;
  bool update;
};

// ------------------------------------------------------------ histogram --

/// Nanosecond histogram: exact below 1024 ns, then 512 sub-buckets per
/// power of two (0.2% resolution). Quantiles interpolate inside a bucket.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void add(std::int64_t ns) noexcept {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const noexcept { return n_; }

  /// Value at quantile q in [0, 1], in ns; 0 when empty.
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0;
    const double target = q * static_cast<double>(n_);
    double below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0) continue;
      if (below + c >= target) {
        const auto [lo, width] = bounds(i);
        const double within = std::clamp((target - below) / c, 0.0, 1.0);
        return static_cast<double>(lo) + within * static_cast<double>(width);
      }
      below += c;
    }
    return static_cast<double>(bounds(kBuckets - 1).first);
  }

  /// Samples strictly above quantile q (the tail a percentile rests on).
  std::uint64_t beyond(double q) const noexcept {
    return n_ - static_cast<std::uint64_t>(
                    std::ceil(q * static_cast<double>(n_)));
  }

 private:
  static constexpr unsigned kSubBits = 9;
  static constexpr unsigned kMaxExp = 47;  // clamp at ~39 hours
  static constexpr std::size_t kLinear = std::size_t{2} << kSubBits;
  static constexpr std::size_t kBuckets =
      kLinear + (kMaxExp - kSubBits) * (std::size_t{1} << kSubBits);

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kLinear) return static_cast<std::size_t>(v);
    unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (std::uint64_t{2} << kMaxExp) - 1;
    }
    const unsigned shift = e - kSubBits;
    const std::uint64_t m = v >> shift;  // in [2^kSubBits, 2^(kSubBits+1))
    return kLinear + (e - kSubBits - 1) * (std::size_t{1} << kSubBits) +
           static_cast<std::size_t>(m - (std::uint64_t{1} << kSubBits));
  }

  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) noexcept {
    if (i < kLinear) return {i, 1};
    const std::size_t j = i - kLinear;
    const unsigned e = kSubBits + 1 + static_cast<unsigned>(j >> kSubBits);
    const std::uint64_t m =
        (std::uint64_t{1} << kSubBits) + (j & ((std::size_t{1} << kSubBits) - 1));
    const unsigned shift = e - kSubBits;
    return {m << shift, std::uint64_t{1} << shift};
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

// --------------------------------------------------------------- tracing --

/// Span kinds: the `atomically` call, each body attempt, and each wrapper
/// call made inside a body.
enum class Kind : std::uint8_t {
  Call,
  Attempt,
  MapGet,
  MapPut,
  MapRemove,
  PqRemoveMin,
  PqInsert,
  PqMin,
  TrieGet,
  TriePut,
  CounterIncr,
};
inline constexpr std::size_t kKinds = 11;

/// One span as kept in memory and written out by --spans-out: 32 bytes,
/// native byte order. `call` is (thread << 48 | per-thread call number);
/// `parent` is the low 32 bits of the enclosing span's sequence number in
/// the same thread's buffer (0xffffffff for a call span).
struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t call = 0;
  std::uint32_t parent = 0;
  Kind kind = Kind::Call;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(Span) == 32);

template <bool On>
class Trace;

/// Untraced runs: every hook compiles away.
template <>
class Trace<false> {
 public:
  struct Scope {
    Scope(Trace&, Kind) noexcept {}
  };
  template <class F>
  decltype(auto) op(Kind, F&& f) {
    return std::forward<F>(f)();
  }
  void begin_call(std::int64_t, bool) noexcept {}
  void end_call(std::int64_t, bool) noexcept {}
};

/// Traced runs: spans go into a preallocated per-thread ring, oldest
/// overwritten first. Only calls that start inside the measured window are
/// recorded. Spans of one call are contiguous in the ring, call first.
template <>
class Trace<true> {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  Trace(std::size_t capacity_pow2, unsigned thread)
      : ring_(capacity_pow2), mask_(capacity_pow2 - 1), thread_(thread) {}

  /// Closes its span when the scope ends, including by the unwinding of an
  /// aborted attempt.
  class Scope {
   public:
    Scope(Trace& t, Kind k) : t_(t), seq_(t.open(k)) {}
    ~Scope() { t_.close(seq_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
    std::uint64_t seq_;
  };

  template <class F>
  decltype(auto) op(Kind k, F&& f) {
    Scope s(*this, k);
    return std::forward<F>(f)();
  }

  void begin_call(std::int64_t t0, bool record) {
    recording_ = record;
    if (!record) return;
    call_id_ = (std::uint64_t{thread_} << 48) | calls_++;
    call_seq_ = next_++;
    ring_[call_seq_ & mask_] = Span{t0, 0, call_id_, kNoParent, Kind::Call, {}};
    attempt_seq_ = kNone;
    call_wasted_ = 0;
  }

  /// `counted`: the call completed inside the window.
  void end_call(std::int64_t t1, bool counted) {
    if (!recording_) return;
    ring_[call_seq_ & mask_].end = t1;
    if (!counted) return;
    wasted_ns_ += call_wasted_;
    ++counted_calls_;
  }

  /// Body time of the attempts that aborted, summed over the recorded calls
  /// that completed inside the window, and the number of those calls.
  std::int64_t wasted_ns() const noexcept { return wasted_ns_; }
  std::uint64_t counted_calls() const noexcept { return counted_calls_; }

  /// Retained spans, oldest first.
  std::vector<Span> spans() const {
    const std::uint64_t n = std::min<std::uint64_t>(next_, ring_.size());
    std::vector<Span> out;
    out.reserve(n);
    for (std::uint64_t s = next_ - n; s < next_; ++s) out.push_back(ring_[s & mask_]);
    return out;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  std::uint64_t open(Kind k) {
    if (!recording_) return kNone;
    const std::uint64_t seq = next_++;
    const std::uint64_t parent = k == Kind::Attempt ? call_seq_ : attempt_seq_;
    const std::int64_t t = now_ns();
    ring_[seq & mask_] =
        Span{t, 0, call_id_, static_cast<std::uint32_t>(parent), k, {}};
    if (k == Kind::Attempt) {
      if (attempt_seq_ != kNone) {  // the previous attempt aborted
        const Span& prev = ring_[attempt_seq_ & mask_];
        call_wasted_ += prev.end - prev.start;
      }
      attempt_seq_ = seq;
    }
    return seq;
  }
  void close(std::uint64_t seq) {
    if (seq != kNone) ring_[seq & mask_].end = now_ns();
  }

  std::vector<Span> ring_;
  std::uint64_t mask_;
  std::uint64_t next_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t call_id_ = 0;
  std::uint64_t call_seq_ = 0;
  std::uint64_t attempt_seq_ = kNone;
  std::int64_t call_wasted_ = 0;
  std::int64_t wasted_ns_ = 0;
  std::uint64_t counted_calls_ = 0;
  unsigned thread_;
  bool recording_ = false;
};

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// What one run prints: metadata lines, metrics, check errors, and the
/// totals of the closing JSON line.
class Report {
 public:
  void meta(std::string line) { meta_.push_back(std::move(line)); }
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Overwrite a metric added earlier (the traced run pre-declares every
  /// per-layer metric at 0: 0 means the workload does not cross that layer).
  void set(const std::string& name, double value, std::string note = "") {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.note = std::move(note);
        return;
      }
    }
    error("internal: unknown metric " + name);
  }
  void error(std::string what) { errors_.push_back(std::move(what)); }

  const std::vector<std::string>& meta_lines() const noexcept { return meta_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<std::string> meta_;
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
