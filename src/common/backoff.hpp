// Bounded randomized exponential backoff, used by the STM between retry
// attempts (StmOptions::cm_policy) and by the pessimistic lock-allocator
// policy when abstract-lock acquisition times out.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/rng.hpp"

namespace proust {

class Backoff {
 public:
  /// `yield_after` is the spin-vs-nap split: once the randomized window
  /// reaches it, every pause also surrenders the processor (spinning past
  /// that point starves the opponent on oversubscribed machines). The STM
  /// uses the defaults.
  explicit Backoff(std::uint64_t seed = 1, std::uint32_t min_spins = 32,
                   std::uint32_t max_spins = 1u << 16,
                   std::uint32_t yield_after = 4096) noexcept
      : rng_(seed), limit_(min_spins), min_spins_(min_spins),
        max_spins_(max_spins), yield_after_(yield_after) {}

  /// Spin (and eventually yield) for a randomized, exponentially growing
  /// duration. Caps at max_spins to avoid unbounded delay.
  void pause() noexcept {
    const std::uint64_t spins = rng_.below(limit_) + 1;
    for (std::uint64_t i = 0; i < spins; ++i) {
      cpu_relax();
    }
    if (limit_ >= yield_after_) {
      std::this_thread::yield();
    }
    if (limit_ < max_spins_) limit_ *= 2;
  }

  void reset() noexcept { limit_ = min_spins_; }

  std::uint32_t current_limit() const noexcept { return limit_; }

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
  }

 private:
  Xoshiro256 rng_;
  std::uint32_t limit_;
  std::uint32_t min_spins_;
  std::uint32_t max_spins_;
  std::uint32_t yield_after_;
};

}  // namespace proust
