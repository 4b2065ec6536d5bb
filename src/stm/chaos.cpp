#include "stm/chaos.hpp"

#include <cstdio>
#include <thread>

namespace proust::stm {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

}  // namespace

ChaosConfig ChaosConfig::standard(std::uint64_t seed) noexcept {
  ChaosConfig c;
  c.seed = seed;
  c.at(ChaosPoint::TxnRead) = {.abort = 0.002, .timeout = 0, .delay = 0.01};
  c.at(ChaosPoint::TxnValidate) = {.abort = 0.01, .timeout = 0, .delay = 0.02};
  c.at(ChaosPoint::CommitLock) = {.abort = 0.01, .timeout = 0, .delay = 0.02};
  c.at(ChaosPoint::WvPublish) = {.abort = 0.01, .timeout = 0, .delay = 0.05};
  c.at(ChaosPoint::LapAcquire) = {.abort = 0.005, .timeout = 0.01, .delay = 0.02};
  c.at(ChaosPoint::LockTransition) = {.abort = 0, .timeout = 0.02, .delay = 0.2};
  c.at(ChaosPoint::ReplayApply) = {.abort = 0, .timeout = 0, .delay = 0.05};
  return c;
}

ChaosConfig ChaosConfig::aggressive(std::uint64_t seed) noexcept {
  ChaosConfig c;
  c.seed = seed;
  c.at(ChaosPoint::TxnRead) = {.abort = 0.01, .timeout = 0, .delay = 0.03};
  c.at(ChaosPoint::TxnValidate) = {.abort = 0.05, .timeout = 0, .delay = 0.05};
  c.at(ChaosPoint::CommitLock) = {.abort = 0.05, .timeout = 0, .delay = 0.05};
  c.at(ChaosPoint::WvPublish) = {.abort = 0.05, .timeout = 0, .delay = 0.1};
  c.at(ChaosPoint::LapAcquire) = {.abort = 0.02, .timeout = 0.05, .delay = 0.05};
  c.at(ChaosPoint::LockTransition) = {.abort = 0, .timeout = 0.1, .delay = 0.3};
  c.at(ChaosPoint::ReplayApply) = {.abort = 0, .timeout = 0, .delay = 0.1};
  c.delay_spins = 512;
  return c;
}

ChaosPolicy::Stream& ChaosPolicy::my_stream() noexcept {
  Stream& st = streams_[ThreadRegistry::slot()];
  if (!st.seeded) {
    // Decision N of slot k is a pure function of (seed, k, N): the stream
    // state starts at a mix of the two and only decide() advances it.
    st.state =
        cfg_.seed ^ (0xA24BAED4963EE407ULL *
                     (std::uint64_t{ThreadRegistry::slot()} + 1));
    st.seeded = true;
  }
  return st;
}

ChaosAction ChaosPolicy::decide(ChaosPoint p) noexcept {
  const ChaosPointConfig& pc = cfg_.at(p);
  if (!pc.enabled()) return ChaosAction::None;
  Stream& st = my_stream();
  const double u =
      static_cast<double>(splitmix_next(st.state) >> 11) * 0x1.0p-53;
  ChaosAction a = ChaosAction::None;
  if (u < pc.abort) {
    a = ChaosAction::Abort;
  } else if (u < pc.abort + pc.timeout) {
    a = ChaosAction::Timeout;
  } else if (u < pc.abort + pc.timeout + pc.delay) {
    a = ChaosAction::Delay;
  } else if (u < pc.abort + pc.timeout + pc.delay + pc.crash) {
    a = ChaosAction::Crash;
  }
  if (a != ChaosAction::None) {
    st.injected[static_cast<std::size_t>(p)] += 1;
  }
  return a;
}

void ChaosPolicy::inject_delay() noexcept {
  for (unsigned i = 0; i < cfg_.delay_spins; ++i) cpu_relax();
  if (cfg_.delay_yield) std::this_thread::yield();
}

bool ChaosPolicy::on_lock_transition(sync::LockTransition t) noexcept {
  const ChaosAction a = decide(ChaosPoint::LockTransition);
  if (a == ChaosAction::None) return false;
  if (t == sync::LockTransition::kSlowPath &&
      (a == ChaosAction::Timeout || a == ChaosAction::Abort)) {
    return true;  // force the acquisition to fail as if it timed out
  }
  // Everything else (and timeout draws at CAS/park, which cannot be honored
  // there) becomes a delay, so every counted decision has an effect.
  inject_delay();
  return false;
}

std::array<std::uint64_t, kNumChaosPoints> ChaosPolicy::injected_totals()
    const noexcept {
  std::array<std::uint64_t, kNumChaosPoints> out{};
  for (const Stream& st : streams_) {
    for (std::size_t i = 0; i < kNumChaosPoints; ++i) out[i] += st.injected[i];
  }
  return out;
}

std::uint64_t ChaosPolicy::injected_total() const noexcept {
  std::uint64_t t = 0;
  for (auto n : injected_totals()) t += n;
  return t;
}

void ChaosPolicy::report_leak(const char* what) noexcept {
  leaks_.fetch_add(1, std::memory_order_acq_rel);
  std::fprintf(stderr, "[chaos] TEARDOWN LEAK (seed=%llu): %s\n",
               static_cast<unsigned long long>(cfg_.seed), what);
}

}  // namespace proust::stm
