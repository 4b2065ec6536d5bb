// Per-stripe sequence words backing the unlocked read path (DESIGN.md §12).
// An eager wrapper whose reads run unlocked pairs a ReadSeqTable with its
// base structure: read-only operations traverse the base without the
// abstract lock, bracketed by loads of the stripe's word, and mutators *pin*
// the word across their base mutation — including the window in which an
// abort's inverse operations run, since an unlocked reader must not observe
// transient state that a later rollback will retract.
//
// Word format: stm::CommitFence's multi-writer [entries | active] packing.
// A pin is fetch_add(kEntry) (one more entry, one more active pinner), a
// release is fetch_sub(1), and a word is stable iff no pinner is active.
// Two transactions pinning one stripe (on different CA slots, so no lock
// orders them) leave it unstable until both have released; a single parity
// bit would read even with both in flight.
//
// The pin is transactional: the first pin of a stripe in an attempt records
// a SeqHold in the transaction arena; the table's finish hook (one per table
// per attempt, both outcomes — the PessimisticLap release pattern) releases
// every held word *after* the abort hooks ran, so the pinned interval covers
// mutation and rollback alike. Re-pinning a stripe the attempt already holds
// is a no-op, so an attempt is at most one active pinner per word.
//
// Memory ordering: the pin is a seq_cst RMW so it is ordered before the
// mutator's base writes; the release is a release RMW so the writes are
// ordered before it. A reader loads the word (acquire), reads the base under
// the base's own synchronization (node atomics, EBR — the unlocked path
// removes the *abstract* lock, never the base's internal one), and
// revalidates behind an acquire fence (Txn::admit_unlocked_read). Any
// overlap moves the word and the read is discarded or the attempt aborts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/commit_fence.hpp"
#include "stm/stm.hpp"

namespace proust::core {

class ReadSeqTable {
 public:
  using Word = std::atomic<std::uint64_t>;

  /// A wrapper passes `enabled = AbstractLock::unlocked_reads()`. Nothing
  /// reads the words otherwise, so a disabled table allocates none, word()
  /// returns null and the wrapper skips writer_pin.
  explicit ReadSeqTable(std::size_t stripes, bool enabled = true)
      : mask_(next_pow2(stripes) - 1),
        words_(enabled ? std::make_unique<Word[]>(mask_ + 1) : nullptr) {}

  ReadSeqTable(const ReadSeqTable&) = delete;
  ReadSeqTable& operator=(const ReadSeqTable&) = delete;

  std::size_t stripes() const noexcept { return mask_ + 1; }
  bool enabled() const noexcept { return words_ != nullptr; }

  /// The stripe's word for unlocked-read bracketing (null when disabled).
  /// Callers hash with the same function as the base structure so stripe ==
  /// base shard (a coarser or finer mapping is still correct, just noisier).
  const Word* word(std::size_t stripe) const noexcept {
    return enabled() ? &words_[stripe & mask_] : nullptr;
  }

  /// Reader-side entry load.
  std::uint64_t load(std::size_t stripe) const noexcept {
    return words_[stripe & mask_].load(std::memory_order_acquire);
  }

  static constexpr bool stable(std::uint64_t w) noexcept {
    return stm::CommitFence::quiescent(w);
  }

  /// Mutator-side: pin `stripe` for the rest of the attempt (released by
  /// this table's finish hook, after any abort inverses ran). Call before
  /// the first base mutation of the stripe; idempotent per attempt. Enabled
  /// tables only.
  void writer_pin(stm::Txn& tx, std::size_t stripe) {
    Word* w = &words_[stripe & mask_];
    std::vector<stm::TxnArena::SeqHold>& holds = tx.seq_holds();
    bool table_seen = false;
    // Newest-first: the stripe just pinned is overwhelmingly the next one
    // touched again, and attempts pin few distinct stripes.
    for (std::size_t i = holds.size(); i-- > 0;) {
      if (holds[i].word == w) return;  // already pinned by this attempt
      table_seen = table_seen || holds[i].group == this;
    }
    if (!table_seen) {
      // First stripe of this table this attempt: hook the release (both
      // outcomes). Finish hooks run after abort hooks, so the pinned
      // interval covers the inverse operations of an eager rollback.
      tx.on_finish([this, &tx](stm::Outcome) {
        for (stm::TxnArena::SeqHold& h : tx.seq_holds()) {
          if (h.group == this && h.word != nullptr) {
            h.word->fetch_sub(1, std::memory_order_release);
            h.word = nullptr;  // released; reset_attempt asserts this
          }
        }
      });
    }
    w->fetch_add(stm::CommitFence::kEntry, std::memory_order_seq_cst);
    holds.push_back({this, w});
  }

 private:
  static std::size_t next_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t mask_;
  // Packed, 8 B a stripe: a 65,536-stripe map pays 512 KiB, not the 4 MiB
  // of a cache line per word.
  std::unique_ptr<Word[]> words_;
};

}  // namespace proust::core
