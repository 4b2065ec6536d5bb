// Reusable per-thread transaction storage ("transaction arena"). A Txn is a
// stack object created per `atomically` call, but all of its variable-sized
// state — read set, write set, write-set index, hook lists, transaction-local
// objects — lives here and is borrowed for the duration of the call. The
// arena is never shrunk between attempts or transactions: `reset_attempt`
// rewinds logical sizes while retaining every vector capacity, pool chunk,
// ValBuf heap buffer, flat-table slot array and bump-arena block. After a
// short warm-up, a transaction attempt on this thread performs zero heap
// allocations (see tests/stm_alloc_test.cpp).
//
// Exactly one Txn per thread may be live at a time (Txn's constructor
// asserts this), so a single thread_local arena suffices even when multiple
// Stm instances coexist.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bump_arena.hpp"
#include "common/chunk_pool.hpp"
#include "common/flat_ptr_map.hpp"
#include "common/small_func.hpp"
#include "stm/fwd.hpp"
#include "stm/orec.hpp"

namespace proust::stm {

namespace detail {

/// Small-buffer value storage for redo/undo copies. The heap buffer (taken
/// only by values over 32 bytes) is retained across pool reuse.
class ValBuf {
 public:
  void* ensure(std::size_t n) {
    if (n <= kInline) return inline_;
    if (!heap_ || heap_size_ < n) {
      heap_ = std::make_unique<unsigned char[]>(n);
      heap_size_ = n;
    }
    return heap_.get();
  }
  void* data(std::size_t n) noexcept {
    return n <= kInline ? static_cast<void*>(inline_) : heap_.get();
  }
  const void* data(std::size_t n) const noexcept {
    return n <= kInline ? static_cast<const void*>(inline_) : heap_.get();
  }

 private:
  static constexpr std::size_t kInline = 32;
  alignas(16) unsigned char inline_[kInline];
  std::unique_ptr<unsigned char[]> heap_;
  std::size_t heap_size_ = 0;
};

struct WriteEntry {
  VarBase* var = nullptr;
  LockRecord lock;
  ValBuf redo;   // buffered new value (Lazy mode)
  ValBuf undo;   // displaced value (eager modes)
  bool locked = false;
  bool has_redo = false;
  bool wrote = false;  // eager modes: undo saved and in-place value replaced
};

struct ReadEntry {
  const VarBase* var;
  Version version;
};

}  // namespace detail

struct TxnArena {
  /// One transaction-local object (Txn::local): bump-allocated storage plus
  /// the type-erased destructor run when the attempt ends.
  struct LocalSlot {
    const void* key;
    void* obj;
    void (*destroy)(void*);
  };

  /// One abstract-lock membership owned by the running attempt: the per-owner
  /// re-entrancy counters that used to live in the lock's shared hold map
  /// (see sync/reentrant_rw_lock.hpp). `group` identifies the LAP instance
  /// that took the hold — its finish hook releases only its own entries —
  /// and `lock` is the sync::ReentrantRwLock, kept opaque at this layer.
  /// There is exactly one record per (LAP, stripe) a transaction touches,
  /// which is what makes release walk each held stripe exactly once.
  struct LockHold {
    const void* group;
    void* lock;
    std::uint32_t readers;
    std::uint32_t writers;
  };

  std::vector<detail::ReadEntry> reads;
  ChunkPool<detail::WriteEntry, 32> writes;  // chunked: stable LockRecord addresses
  FlatPtrMap write_table;                    // engaged past the linear-scan window
  std::vector<VarBase*> reader_marks;

  std::vector<SmallFunc<void()>> abort_hooks;
  std::vector<SmallFunc<void()>> commit_locked_hooks;
  std::vector<SmallFunc<void()>> commit_hooks;
  std::vector<SmallFunc<void(Outcome)>> finish_hooks;
  // Fences the commit path must hold across [wv generation .. commit-locked
  // hooks complete] (see commit_fence.hpp). Registered alongside replay
  // hooks via on_commit_locked(hook, fence).
  std::vector<CommitFence*> commit_fences;

  std::vector<LocalSlot> locals;
  BumpArena local_slab;
  std::vector<LockHold> lock_holds;

  // Durability (DESIGN.md §14): redo records staged by Txn::wal_log (and
  // the auto-serialized Var writes), published to the WAL at the commit
  // point. Abort discards them with the rest of the attempt — an aborted
  // attempt's records can never reach the log.
  std::vector<std::uint8_t> wal_buf;
  std::uint32_t wal_records = 0;

  TxnArena() {
    reads.reserve(64);
    reader_marks.reserve(16);
    lock_holds.reserve(8);
  }

  /// The calling thread's arena (lazily constructed, lives until thread exit).
  static TxnArena& of_thread();

  /// Rewind every container to logically empty while retaining capacity.
  /// Locals are destroyed in reverse creation order; their storage is kept.
  void reset_attempt() noexcept {
#ifndef NDEBUG
    // A finished attempt holds nothing: no orec locks, no abstract-lock
    // stripes, no visible-reader marks. Chaos builds also check this at
    // runtime (Txn::verify_teardown); these asserts catch the same leaks in
    // any debug build, chaos or not.
    for (std::size_t i = 0; i < writes.size(); ++i) {
      assert(!writes[i].locked && "orec lock leaked past attempt end");
    }
    for (const LockHold& h : lock_holds) {
      assert(h.readers == 0 && h.writers == 0 &&
             "abstract-lock stripe leaked past finish hooks");
    }
    assert(reader_marks.empty() && "visible-reader marks leaked");
#endif
    reads.clear();
    writes.reset();
    write_table.clear();
    reader_marks.clear();
    abort_hooks.clear();
    commit_locked_hooks.clear();
    commit_hooks.clear();
    finish_hooks.clear();
    commit_fences.clear();
    for (auto it = locals.rbegin(); it != locals.rend(); ++it) {
      it->destroy(it->obj);
    }
    locals.clear();
    local_slab.reset();
    // Lock holds were already released by the owning LAPs' finish hooks
    // (which run before this reset); drop the records, keep the capacity.
    lock_holds.clear();
    wal_buf.clear();
    wal_records = 0;
  }
};

}  // namespace proust::stm
