// Ownership records. Each transactional variable owns one record inline (a
// "var-based" STM), so the STM itself introduces no aliasing-induced false
// conflicts — important because the paper's whole subject is false conflicts
// created above the STM, and we want to measure only those.
//
// Word layout:
//   free:   (version << 1) | 0
//   locked: (LockRecord*)  | 1   — the record lives in the owner's write set
//                                  and carries the owner and pre-lock version.
#pragma once

#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"

namespace proust::stm {

/// Published while an orec is locked; stable address inside the owning
/// transaction's write set. Foreign transactions only compare `owner`
/// against themselves; they never dereference it.
struct LockRecord {
  Txn* owner = nullptr;
  Version old_version = 0;
};

class Orec {
 public:
  Orec() noexcept : word_(0) {}

  /// Raw word snapshot (acquire). Callers decode with the helpers below.
  std::uintptr_t load() const noexcept {
    return word_.load(std::memory_order_acquire);
  }

  static bool is_locked(std::uintptr_t w) noexcept { return (w & 1u) != 0; }

  static Version version_of(std::uintptr_t w) noexcept {
    return static_cast<Version>(w >> 1);
  }

  static LockRecord* owner_of(std::uintptr_t w) noexcept {
    return reinterpret_cast<LockRecord*>(w & ~std::uintptr_t{1});
  }

  /// Try to acquire: transition from the observed free word to locked-by-rec.
  /// On success, rec->old_version is filled with the displaced version.
  bool try_lock(LockRecord* rec) noexcept {
    std::uintptr_t w = word_.load(std::memory_order_acquire);
    if (is_locked(w)) return false;
    rec->old_version = version_of(w);
    const auto locked = reinterpret_cast<std::uintptr_t>(rec) | 1u;
    return word_.compare_exchange_strong(w, locked, std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// Release a held lock, publishing `new_version`: the commit's wv, or on
  /// abort the displaced version (no in-place write) or a fresh one
  /// (Txn::rollback). Only the owner may call this.
  void unlock(Version new_version) noexcept {
    word_.store(static_cast<std::uintptr_t>(new_version) << 1,
                std::memory_order_release);
  }

 private:
  std::atomic<std::uintptr_t> word_;
};

}  // namespace proust::stm
