// Epoch-based reclamation (EBR). A minimal, self-contained domain that lets
// lock-free readers traverse linked structures while unlinked nodes are
// reclaimed after a grace period, instead of leaking them to a
// free-at-destruction pool (the skip list's old scheme) or paying per-node
// reference counts on every traversal.
//
// Protocol:
//  - A global epoch counter advances by one when every pinned thread has
//    announced the current epoch.
//  - Readers (and unlinkers — see the contract below) pin the domain for
//    the duration of a traversal (Guard): they announce the global epoch on
//    entry and go idle on exit. Announcing is two loads and a store on a
//    thread-private cache line.
//  - Writers unlink a node *while pinned*, then retire it into the retiring
//    slot's limbo bucket for the current epoch (buckets are slot-private,
//    so retire is free of shared-memory contention).
//  - A node retired in epoch E is freed once the global epoch reaches E+3.
//    Why three advances and not the folklore two: a reader pinned at E+1
//    may have pinned after the advance to E+1 yet before the unlink store
//    became visible to it (the unlinker's announcement — the only thing the
//    advancing scan read — predates the unlink), so it can still acquire a
//    reference to the node. Readers pinned at >= E+2 cannot: the advance to
//    E+2 required the unlinker's pin at E to have ended (its slot read idle
//    or re-announced), which orders the unlink before the E+2 CAS, and the
//    release sequence of epoch CASes carries that edge into every later
//    pin. Readers pinned at <= E+1 are all gone once the epoch reaches E+3
//    (each advance excludes pins more than one epoch old). With four
//    buckets indexed by epoch mod 4, bucket (N+1)%4 holds nodes from epochs
//    <= N-3 whenever the global epoch is N, and may be drained wholesale.
//  - Grace-period advance is driven from retire points (amortized: every
//    kAdvanceEvery retires per slot) and from explicit advance()/quiesce()
//    calls at commit/quiescent points; no background thread.
//
// Slots are the process-wide thread-registry slots (stm/thread_registry.hpp):
// callers pass ThreadRegistry::slot(), and the domain scans only up to the
// highest slot that ever touched it. Reclamation is intrusive — retired
// objects embed an `ebr::Retired` (a next link plus the reclaim callback),
// so retiring allocates nothing and recycling pools can reuse the nodes.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace proust::ebr {

/// Intrusive hook embedded in (or fronting) every retireable object. The
/// reclaim callback runs on whichever thread drains the limbo bucket — it
/// receives the hook pointer and the context registered at retire() time
/// (e.g. a pool to recycle into); implementations recover the full object
/// with a container-of cast.
struct Retired {
  Retired* next = nullptr;
  void (*reclaim)(Retired*, void* ctx) = nullptr;
  void* ctx = nullptr;
};

#ifndef NDEBUG
/// Debug-only census of live Guards on this thread, across every domain.
/// Transactions assert it is zero at attempt boundaries (stm/txn.cpp): an
/// optimistic fast-path read must never leak an epoch pin past the read
/// that took it — a leaked pin silently stalls reclamation for every
/// container the thread ever touches. Deliberately excludes raw
/// enter()/exit() pins, which legitimately outlive a single read: the
/// wrappers' attempt-long reader pin (reader_pin/reader_unpin) is released by
/// a finish hook, and a live container Snapshot holds its pin until it is
/// dropped.
inline int& debug_guard_depth_ref() noexcept {
  thread_local int depth = 0;
  return depth;
}
inline int debug_guard_depth() noexcept { return debug_guard_depth_ref(); }
#else
constexpr int debug_guard_depth() noexcept { return 0; }
#endif

class EbrDomain {
  static constexpr std::size_t kCacheLine = 64;
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  static constexpr std::uint64_t kBuckets = 4;
  /// Retires between amortized advance attempts (per slot). Small enough
  /// that single-threaded churn reaches reclaim steady state inside a test
  /// warm-up; large enough that the all-slot scan stays off the hot path.
  static constexpr std::uint64_t kAdvanceEvery = 32;

 public:
  explicit EbrDomain(unsigned max_slots) : max_slots_(max_slots) {
    slots_ = new Slot[max_slots];
  }

  ~EbrDomain() {
    // Destruction implies quiescence: no pinned readers, no concurrent
    // retires. Drain every bucket regardless of epoch arithmetic.
    drain_all();
    delete[] slots_;
  }

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  /// Pin `slot` to the current epoch. COUNTED: enter/exit pairs nest — only
  /// the outermost enter announces and only the matching exit goes idle, so
  /// independent holders on one slot (an attempt-long wrapper pin, a
  /// container Guard, a live Snapshot) compose without coordinating. The
  /// depth counter is slot-private (owner-thread only), so nesting costs one
  /// non-atomic increment. The announce-then-revalidate loop closes the race
  /// where the epoch advances between the load and the announce: on return
  /// the announced value is one the global held *after* the announcement was
  /// visible, so an advancing scan can never have missed this pin and also
  /// advanced past it.
  void enter(unsigned slot) noexcept {
    assert(slot < max_slots_);
    note_slot(slot);
    Slot& s = slots_[slot];
    if (s.depth++ > 0) return;  // nested: the outer pin already announced
    for (;;) {
      const std::uint64_t e = global_.load(std::memory_order_seq_cst);
      s.epoch.store(e, std::memory_order_seq_cst);
      if (global_.load(std::memory_order_seq_cst) == e) return;
    }
  }

  void exit(unsigned slot) noexcept {
    Slot& s = slots_[slot];
    assert(s.depth > 0 && "exit() without matching enter()");
    if (--s.depth > 0) return;  // an enclosing pin is still live
    s.epoch.store(kIdle, std::memory_order_release);
  }

  bool pinned(unsigned slot) const noexcept {
    return slots_[slot].epoch.load(std::memory_order_relaxed) != kIdle;
  }

  /// RAII pin. enter/exit are counted, so a Guard built while its slot is
  /// already pinned (an attempt-long wrapper pin, an enclosing Guard, a live
  /// Snapshot) simply deepens that pin: only the outermost holder pays the
  /// announce fence, and the epoch stays pinned until the last holder on
  /// the slot releases.
  class Guard {
   public:
    Guard(EbrDomain& d, unsigned slot) noexcept : d_(d), slot_(slot) {
#ifndef NDEBUG
      ++debug_guard_depth_ref();
#endif
      d_.enter(slot_);
    }
    ~Guard() {
      d_.exit(slot_);
#ifndef NDEBUG
      --debug_guard_depth_ref();
#endif
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain& d_;
    unsigned slot_;
  };

  /// Defer reclamation of `r` until three grace periods have passed. The
  /// caller must have performed the unlink *while pinned* and still be
  /// pinned here (that pin is what publishes the unlink to future epochs —
  /// see the file comment). Allocation-free: `r` lives inside the retired
  /// object. Every kAdvanceEvery retires the slot also tries to advance the
  /// epoch and drain its eligible bucket, so sustained churn reclaims
  /// continuously.
  void retire(unsigned slot, Retired* r, void (*reclaim)(Retired*, void*),
              void* ctx) noexcept {
    assert(slot < max_slots_);
    assert(pinned(slot) && "retire() requires the unlinking pin");
    Slot& s = slots_[slot];
    r->reclaim = reclaim;
    r->ctx = ctx;
    const std::uint64_t e = global_.load(std::memory_order_acquire);
    Bucket& b = s.limbo[e % kBuckets];
    r->next = b.head;
    b.head = r;
    ++b.count;
    s.retired.fetch_add(1, std::memory_order_relaxed);
    if (++s.since_advance >= kAdvanceEvery) {
      s.since_advance = 0;
      advance(slot);
    }
  }

  /// One grace-period step: advance the global epoch if every pinned slot
  /// has announced it, then drain this slot's eligible bucket. Safe to call
  /// at any commit/quiesce point, pinned or not; O(high-water slots).
  void advance(unsigned slot) noexcept {
    std::uint64_t e = global_.load(std::memory_order_seq_cst);
    if (all_announced(e)) {
      // CAS failure means someone else advanced past us; either way the
      // epoch we subsequently observe is safe to drain against.
      global_.compare_exchange_strong(e, e + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst);
    }
    const std::uint64_t now = global_.load(std::memory_order_seq_cst);
    drain_bucket(slots_[slot], (now + 1) % kBuckets);
  }

  /// Drain everything, stepping the epoch as needed. The caller promises no
  /// reader is pinned and no concurrent retire() is running (a quiescent
  /// point — tests, shutdown, maintenance windows). Returns the number of
  /// objects reclaimed.
  std::size_t quiesce() noexcept {
    for (std::uint64_t i = 0; i < kBuckets; ++i) {
      std::uint64_t e = global_.load(std::memory_order_seq_cst);
      if (all_announced(e)) {
        global_.compare_exchange_strong(e, e + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
      }
    }
    return drain_all();
  }

  /// Observability: totals across slots (relaxed; exact only at quiescence).
  std::uint64_t retired_count() const noexcept {
    return sum([](const Slot& s) {
      return s.retired.load(std::memory_order_relaxed);
    });
  }
  std::uint64_t reclaimed_count() const noexcept {
    return sum([](const Slot& s) {
      return s.reclaimed.load(std::memory_order_relaxed);
    });
  }
  /// Objects retired but not yet reclaimed.
  std::uint64_t pending() const noexcept {
    return retired_count() - reclaimed_count();
  }

  std::uint64_t epoch() const noexcept {
    return global_.load(std::memory_order_relaxed);
  }

 private:
  struct Bucket {
    Retired* head = nullptr;
    std::uint64_t count = 0;
  };

  /// Per-slot state, padded so neighbouring slots never share a line. The
  /// epoch word is read by advancing threads; the limbo buckets are touched
  /// only by the owning slot (outside quiesce/destruction).
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
    int depth = 0;  // owner-thread-only pin count (counted enter/exit)
    Bucket limbo[kBuckets];
    std::uint64_t since_advance = 0;
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> reclaimed{0};
  };

  void note_slot(unsigned slot) noexcept {
    unsigned hw = high_water_.load(std::memory_order_relaxed);
    while (hw < slot + 1 &&
           !high_water_.compare_exchange_weak(hw, slot + 1,
                                              std::memory_order_acq_rel)) {
    }
  }

  bool all_announced(std::uint64_t e) const noexcept {
    const unsigned hw = high_water_.load(std::memory_order_acquire);
    for (unsigned i = 0; i < hw; ++i) {
      const std::uint64_t se = slots_[i].epoch.load(std::memory_order_seq_cst);
      if (se != kIdle && se != e) return false;
    }
    return true;
  }

  std::size_t drain_bucket(Slot& s, std::uint64_t idx) noexcept {
    Bucket& b = s.limbo[idx];
    Retired* r = b.head;
    b.head = nullptr;
    const std::uint64_t n = b.count;
    b.count = 0;
    std::size_t freed = 0;
    while (r != nullptr) {
      Retired* next = r->next;
      r->reclaim(r, r->ctx);
      r = next;
      ++freed;
    }
    if (n != 0) s.reclaimed.fetch_add(n, std::memory_order_relaxed);
    return freed;
  }

  std::size_t drain_all() noexcept {
    std::size_t freed = 0;
    const unsigned hw = high_water_.load(std::memory_order_acquire);
    for (unsigned i = 0; i < hw; ++i) {
      for (std::uint64_t b = 0; b < kBuckets; ++b) {
        freed += drain_bucket(slots_[i], b);
      }
    }
    return freed;
  }

  template <class F>
  std::uint64_t sum(F&& f) const noexcept {
    std::uint64_t t = 0;
    const unsigned hw = high_water_.load(std::memory_order_acquire);
    for (unsigned i = 0; i < hw; ++i) t += f(slots_[i]);
    return t;
  }

  alignas(kCacheLine) std::atomic<std::uint64_t> global_{1};
  std::atomic<unsigned> high_water_{0};
  Slot* slots_;
  unsigned max_slots_;
};

}  // namespace proust::ebr
