// Per-stripe sequence words backing the optimistic read fast path
// (DESIGN.md §12). A wrapper pairs a ReadSeqTable with its base structure:
// read-only operations traverse the base without the abstract lock, bracketed
// by loads of the stripe's word (stable = even), and mutators *pin* the word
// odd across their base mutation — including, for eager wrappers, the window
// in which an abort's inverse operations run, since a fast reader must not
// observe transient state that a later rollback will retract.
//
// The pin is transactional: the first pin of a stripe in an attempt bumps the
// word odd and records a SeqHold in the transaction arena; the table's finish
// hook (one per table per attempt, both outcomes — the PessimisticLap release
// pattern) bumps every held word back even *after* the abort hooks ran, so
// the odd interval covers mutation and rollback alike. Re-pinning a stripe
// the attempt already holds is a no-op, keeping parity correct for wrappers
// whose put() touches a stripe several times.
//
// Memory ordering: the pin is a seq_cst fetch_add so it is ordered before
// the mutator's base writes; the release bump is a release fetch_add so the
// writes are ordered before it. A reader loads the word (acquire), reads the
// base under the base's own synchronization (shard mutex, node locks, EBR —
// the fast path removes the *abstract* lock, never the base's internal one),
// and revalidates behind an acquire fence (Txn::admit_unlocked_read). Any
// overlap moves the word and the read is discarded or the attempt aborts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/stm.hpp"

namespace proust::core {

class ReadSeqTable {
 public:
  /// A wrapper passes `enabled = stm.options().optimistic_reads` for its
  /// Stm. Nothing reads the words otherwise, so a disabled table allocates
  /// none, word() returns null (the fast path falls back at once) and the
  /// wrapper skips writer_pin.
  explicit ReadSeqTable(std::size_t stripes, bool enabled = true)
      : mask_(next_pow2(stripes) - 1),
        words_(enabled ? std::make_unique<Word[]>(mask_ + 1) : nullptr) {}

  ReadSeqTable(const ReadSeqTable&) = delete;
  ReadSeqTable& operator=(const ReadSeqTable&) = delete;

  std::size_t stripes() const noexcept { return mask_ + 1; }
  bool enabled() const noexcept { return words_ != nullptr; }

  /// The stripe's word for fast-path bracketing (null when disabled).
  /// Callers hash with the same function as the base structure so stripe ==
  /// base shard (a coarser or finer mapping is still correct, just noisier).
  const std::atomic<std::uint64_t>* word(std::size_t stripe) const noexcept {
    return enabled() ? &words_[stripe & mask_].v : nullptr;
  }

  /// Reader-side entry load.
  std::uint64_t load(std::size_t stripe) const noexcept {
    return words_[stripe & mask_].v.load(std::memory_order_acquire);
  }

  static constexpr bool stable(std::uint64_t w) noexcept {
    return (w & 1) == 0;
  }

  /// Mutator-side: pin `stripe` odd for the rest of the attempt (released
  /// even by this table's finish hook, after any abort inverses ran). Call
  /// before the first base mutation of the stripe; idempotent per attempt.
  /// Enabled tables only.
  void writer_pin(stm::Txn& tx, std::size_t stripe) {
    std::atomic<std::uint64_t>* w = &words_[stripe & mask_].v;
    std::vector<stm::TxnArena::SeqHold>& holds = tx.seq_holds();
    bool table_seen = false;
    // Newest-first: the stripe just pinned is overwhelmingly the next one
    // touched again, and attempts pin few distinct stripes.
    for (std::size_t i = holds.size(); i-- > 0;) {
      if (holds[i].word == w) return;  // already odd for this attempt
      table_seen = table_seen || holds[i].group == this;
    }
    if (!table_seen) {
      // First stripe of this table this attempt: hook the release (both
      // outcomes). Finish hooks run after abort hooks, so the odd interval
      // covers the inverse operations of an eager rollback.
      tx.on_finish([this, &tx](stm::Outcome) {
        for (stm::TxnArena::SeqHold& h : tx.seq_holds()) {
          if (h.group == this && h.word != nullptr) {
            h.word->fetch_add(1, std::memory_order_release);
            h.word = nullptr;  // released; reset_attempt asserts this
          }
        }
      });
    }
    w->fetch_add(1, std::memory_order_seq_cst);  // odd: mutation in flight
    holds.push_back({this, w});
  }

 private:
  static std::size_t next_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // One word per cache line: a mutator's pin must not false-share with
  // readers validating neighboring stripes.
  struct alignas(stm::kCacheLine) Word {
    std::atomic<std::uint64_t> v{0};
  };

  std::size_t mask_;
  std::unique_ptr<Word[]> words_;
};

}  // namespace proust::core
