// Multi-version state for snapshot reads (StmOptions::mvcc, DESIGN.md §11).
//
// Every writing commit pushes the value it is about to overwrite — together
// with that value's version stamp — onto the owning Var's version chain
// before the in-place overwrite, while still holding the var's orec lock.
// Chains are newest-first and strictly decreasing in version, so a snapshot
// reader with start timestamp rv that finds the in-place version too new
// walks the chain to the first entry with version <= rv; the push-before-
// overwrite discipline guarantees that entry exists for any rv pinned while
// the overwritten value was still current.
//
// Three pieces live here:
//  - VersionNode: one retained value (version stamp + trailing byte buffer),
//    fronted by an ebr::Retired hook so retiring allocates nothing.
//  - VersionPool: per-registry-slot free lists recycling nodes, so steady-
//    state writer commits never touch the heap (stm_alloc_test pins this).
//  - MvccState: the per-Stm aggregate — pool, EBR domain for chain
//    truncation, and the per-slot snapshot announcements whose minimum is
//    the truncation horizon (no chain entry a live reader could still need
//    is ever unlinked).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/ebr.hpp"
#include "stm/fwd.hpp"
#include "stm/thread_registry.hpp"

namespace proust::stm {

/// One retained historical value of a Var. Allocated as a single block of
/// `sizeof(VersionNode) + cap` bytes; the value bytes trail the header.
/// `next` is atomic because snapshot readers traverse the chain while the
/// lock-holding writer truncates it (truncation only ever *unlinks suffixes*,
/// so a reader that already holds a node can keep following `next` — it
/// either sees the old suffix, still protected by the reader's EBR pin, or
/// null).
struct VersionNode {
  ebr::Retired hook;  // first, so Retired* == VersionNode* modulo layout
  std::atomic<VersionNode*> next{nullptr};
  Version version = 0;
  std::uint32_t cap = 0;   // capacity of the trailing buffer
  std::uint32_t size = 0;  // bytes actually retained

  void* bytes() noexcept { return this + 1; }
  const void* bytes() const noexcept { return this + 1; }

  static VersionNode* from_hook(ebr::Retired* r) noexcept {
    return reinterpret_cast<VersionNode*>(
        reinterpret_cast<char*>(r) - offsetof(VersionNode, hook));
  }
};

/// Per-slot free lists of VersionNodes. acquire/release are called only from
/// the owning registry slot (writers recycle on their own slot; EBR reclaim
/// callbacks run on the draining slot and push there), so the lists need no
/// synchronization — the alignas keeps neighbouring slots off each other's
/// lines anyway.
class VersionPool {
 public:
  explicit VersionPool(unsigned max_slots)
      : slots_(new Slot[max_slots]), max_slots_(max_slots) {}
  ~VersionPool() {
    for (unsigned i = 0; i < max_slots_; ++i) {
      VersionNode* n = slots_[i].head;
      while (n != nullptr) {
        VersionNode* next = n->next.load(std::memory_order_relaxed);
        ::operator delete(n);
        n = next;
      }
    }
    delete[] slots_;
  }
  VersionPool(const VersionPool&) = delete;
  VersionPool& operator=(const VersionPool&) = delete;

  /// Pop a node with capacity >= size, or allocate one (warm-up only, in
  /// steady state the free list serves every request). Undersized pool nodes
  /// are replaced rather than kept: chains of one Stm hold homogeneous sizes
  /// per var, so resizing converges immediately.
  VersionNode* acquire(unsigned slot, std::uint32_t size) {
    assert(slot < max_slots_);
    Slot& s = slots_[slot];
    VersionNode* n = s.head;
    if (n != nullptr && n->cap >= size) {
      s.head = n->next.load(std::memory_order_relaxed);
      --s.count;
      n->next.store(nullptr, std::memory_order_relaxed);
      return n;
    }
    if (n != nullptr) {
      s.head = n->next.load(std::memory_order_relaxed);
      --s.count;
      ::operator delete(n);
    }
    void* raw = ::operator new(sizeof(VersionNode) + size);
    VersionNode* fresh = new (raw) VersionNode{};
    fresh->cap = size;
    return fresh;
  }

  void release(unsigned slot, VersionNode* n) noexcept {
    assert(slot < max_slots_);
    Slot& s = slots_[slot];
    if (s.count >= kMaxFree) {
      ::operator delete(n);
      return;
    }
    n->next.store(s.head, std::memory_order_relaxed);
    s.head = n;
    ++s.count;
  }

 private:
  /// Cap per-slot hoarding; beyond this, nodes go back to the heap. Large
  /// enough for any steady-state chain churn a single slot generates between
  /// EBR drains (kAdvanceEvery nodes per bucket, 4 buckets, plus slack).
  static constexpr std::size_t kMaxFree = 1024;

  struct alignas(kCacheLine) Slot {
    VersionNode* head = nullptr;
    std::size_t count = 0;
  };

  Slot* slots_;
  unsigned max_slots_;
};

/// Per-Stm multi-version state. Declaration order matters: the pool must
/// outlive the EBR domain, whose destructor drains limbo nodes back into it.
class MvccState {
 public:
  explicit MvccState(unsigned max_slots)
      : pool_(max_slots), ebr_(max_slots), max_slots_(max_slots) {
    announce_ = new Cell[max_slots];
  }
  ~MvccState() { delete[] announce_; }
  MvccState(const MvccState&) = delete;
  MvccState& operator=(const MvccState&) = delete;

  VersionPool& pool() noexcept { return pool_; }
  ebr::EbrDomain& ebr() noexcept { return ebr_; }

  /// Snapshot-reader begin: announce a timestamp no greater than the final
  /// rv *before* choosing rv, so a concurrent truncating writer either sees
  /// the announcement (and keeps every version >= it) or, having missed it,
  /// computed its horizon from a clock value c_w with rv >= c_w (all four
  /// loads/stores are seq_cst: if the writer's scan misses this cell, the
  /// scan precedes the announce store in the total order, hence the writer's
  /// clock load precedes this rv load, hence rv >= c_w >= horizon). Also
  /// pins EBR so truncated suffixes the reader may still traverse are not
  /// freed. Returns the snapshot timestamp rv.
  Version reader_begin(unsigned slot, const std::atomic<Version>& clock) {
    assert(slot < max_slots_);
    ebr_.enter(slot);
    const Version a0 = clock.load(std::memory_order_seq_cst);
    announce_[slot].v.store(a0, std::memory_order_seq_cst);
    return clock.load(std::memory_order_seq_cst);
  }

  void reader_end(unsigned slot) noexcept {
    announce_[slot].v.store(kNoSnapshot, std::memory_order_release);
    ebr_.exit(slot);
  }

  /// Truncation horizon: the oldest snapshot any active reader may hold,
  /// bounded above by the current clock (a future reader pins a timestamp
  /// >= the clock the writer saw; the announce protocol covers in-flight
  /// ones). A writer may unlink every chain entry strictly older than the
  /// newest entry with version <= horizon (that entry itself still serves
  /// readers pinned exactly at the horizon).
  Version horizon(const std::atomic<Version>& clock) const noexcept {
    Version h = clock.load(std::memory_order_seq_cst);
    const unsigned hw = ThreadRegistry::high_water();
    for (unsigned i = 0; i < hw && i < max_slots_; ++i) {
      const Version a = announce_[i].v.load(std::memory_order_seq_cst);
      if (a < h) h = a;
    }
    return h;
  }

  /// Retire a chain suffix (already unlinked, caller pinned). Nodes recycle
  /// into this state's pool on whatever slot drains them. Returns the number
  /// of entries retired.
  std::size_t retire_chain(unsigned slot, VersionNode* head) noexcept {
    std::size_t n = 0;
    while (head != nullptr) {
      VersionNode* next = head->next.load(std::memory_order_relaxed);
      ebr_.retire(slot, &head->hook, &MvccState::reclaim_node, this);
      head = next;
      ++n;
    }
    return n;
  }

  /// Drop every node of a chain straight into the pool — destruction-time
  /// path (~VarBase), when no readers can exist.
  void recycle_chain_unsafe(unsigned slot, VersionNode* head) noexcept {
    while (head != nullptr) {
      VersionNode* next = head->next.load(std::memory_order_relaxed);
      pool_.release(slot, head);
      head = next;
    }
  }

  static constexpr Version kNoSnapshot = ~Version{0};

 private:
  static void reclaim_node(ebr::Retired* r, void* ctx) {
    auto* self = static_cast<MvccState*>(ctx);
    self->pool_.release(ThreadRegistry::slot(), VersionNode::from_hook(r));
  }

  struct alignas(kCacheLine) Cell {
    std::atomic<Version> v{kNoSnapshot};
  };

  VersionPool pool_;
  ebr::EbrDomain ebr_;
  Cell* announce_;
  unsigned max_slots_;
};

}  // namespace proust::stm
