// Transactional variables. `Var<T>` holds a trivially-copyable value guarded
// by an inline ownership record plus a visible-reader bitmap (used only in
// Mode::EagerAll). Values are read with a seqlock-style validated copy and
// written back either at commit (Mode::Lazy) or in place at encounter time
// (eager modes), always under the orec lock.
//
// The trivially-copyable restriction is deliberate: it is what makes the
// racy-read/validate protocol sound, and it mirrors how word-based STMs are
// used in practice. Proustian wrappers sidestep the restriction entirely —
// arbitrary value types live in the *base* data structure, and only conflict
// abstraction words (plain integers) go through the STM. That asymmetry is
// one of the paper's selling points.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "stm/orec.hpp"

namespace proust::stm {

/// Cache-line aligned so that adjacent vars in the striped containers (the
/// conflict-abstraction region is a dense `Var<uint64_t>` array, the
/// pure-STM map a dense `Var<Slot>` array) never share a line: one thread
/// locking/versioning its stripe must not invalidate a neighbour stripe's
/// readers. Within a var the orec word, reader bitmap and (small) inline
/// value share a single line on purpose — they are always touched together.
class alignas(kCacheLine) VarBase {
 public:
  VarBase(const VarBase&) = delete;
  VarBase& operator=(const VarBase&) = delete;

  /// Non-transactional: the last committed version of this var. Quiescent
  /// inspection only (like Var::unsafe_ref); tests use it to pin the
  /// per-orec version-monotonicity invariant.
  Version unsafe_version() const noexcept {
    return Orec::version_of(orec_.load());
  }

  std::uint32_t unsafe_size() const noexcept { return size_; }

  /// Orec-validated racy copy for the checkpointer (stm/checkpoint.hpp):
  /// succeeds only when the var is unlocked and its version is unchanged
  /// across the copy, so the bytes are one committed value (an encounter-
  /// time eager writer holds the orec lock until commit or abort-undo, so
  /// its uncommitted bytes can never validate). `out` must hold
  /// unsafe_size() bytes. May run concurrently with transactions.
  bool checkpoint_copy(void* out) const noexcept {
    const std::uintptr_t w0 = orec_.load();  // acquire
    if (Orec::is_locked(w0)) return false;
    std::memcpy(out, data_, size_);
    // Seqlock read side: the copy's loads must complete before the
    // version re-check.
    std::atomic_thread_fence(std::memory_order_acquire);
    return orec_.load() == w0;
  }

  /// Non-transactional restore for recovery/warm restart (quiescent only —
  /// no concurrent transactions): overwrite the value bytes when `n`
  /// matches the var's size; false (and untouched) otherwise.
  bool unsafe_restore(const void* p, std::size_t n) noexcept {
    if (n != size_) return false;
    std::memcpy(data_, p, n);
    return true;
  }

 protected:
  VarBase(void* data, std::size_t size) noexcept
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}
  ~VarBase() = default;

 private:
  friend class Txn;

  Orec orec_;
  /// Visible-reader bitmap, one bit per ThreadRegistry slot < 64.
  std::atomic<std::uint64_t> readers_{0};
  void* data_;
  std::uint32_t size_;
};

template <class T>
  requires std::is_trivially_copyable_v<T>
class Var : public VarBase {
 public:
  Var() noexcept : VarBase(&value_, sizeof(T)), value_{} {}
  explicit Var(const T& v) noexcept : VarBase(&value_, sizeof(T)), value_(v) {}

  /// Transactional read; defined in txn.hpp (needs Txn).
  T read(Txn& tx) const;
  /// Transactional write; defined in txn.hpp.
  void write(Txn& tx, const T& v);

  /// Non-transactional access for quiescent setup/inspection only (no
  /// concurrent transactions may be running).
  const T& unsafe_ref() const noexcept { return value_; }
  void unsafe_store(const T& v) noexcept { value_ = v; }

 private:
  T value_;
};

}  // namespace proust::stm
