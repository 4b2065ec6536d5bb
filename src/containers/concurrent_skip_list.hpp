// A concurrent ordered map: a lazy-synchronization skip list in the style
// of Herlihy & Shavit (The Art of Multiprocessor Programming, cited by the
// paper as [23]). Per-node locks, logical deletion marks, optimistic
// traversal with validation. This is the "well-engineered thread-safe
// library" base under the Proustian ordered map with its range conflict
// abstraction (§1: "queries and updates to non-intersecting key ranges
// commute").
//
// Operations: put/get/remove/contains, plus weakly-consistent ordered
// traversal (range_for_each) in the manner of ConcurrentHashMap iterators —
// the Proustian wrapper's conflict abstraction supplies the transactional
// consistency on top.
//
// Memory reclamation: epoch-based (common/ebr.hpp). Every operation pins the
// list's EBR domain for its duration; remove() unlinks while pinned and
// retires the victim, which is deleted after three grace periods — so memory
// is bounded by churn-in-flight rather than by total removals (the previous
// scheme leaked every removed node until list destruction).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/ebr.hpp"
#include "common/rng.hpp"
#include "stm/thread_registry.hpp"

namespace proust::containers {

template <class K, class V, class Compare = std::less<K>>
class ConcurrentSkipList {
  static constexpr int kMaxLevel = 20;

  struct Node {
    Node(const K& k, const V& v, int height)
        : key(k), value(v), top_level(height - 1) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }
    // Head-node constructor (no key).
    explicit Node(int height) : key{}, value{}, top_level(height - 1) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }

    ebr::Retired hook;  // first member: Retired* == Node* for reclaim
    K key;
    V value;  // guarded by mu
    const int top_level;
    std::atomic<Node*> next[kMaxLevel];
    std::mutex mu;
    std::atomic<bool> marked{false};       // logically deleted
    std::atomic<bool> fully_linked{false}; // insert has completed
    bool is_head = false;
  };

 public:
  ConcurrentSkipList() : head_(new Node(kMaxLevel)), rng_seed_(0x5EED) {
    head_->is_head = true;
    head_->fully_linked.store(true, std::memory_order_release);
  }

  ~ConcurrentSkipList() {
    Node* n = head_;
    while (n) {
      Node* next = n->next[0].load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
    // Retired-but-unreclaimed nodes are drained (and deleted) by ebr_'s
    // destructor; they were unlinked, so the walk above never saw them.
  }

  ConcurrentSkipList(const ConcurrentSkipList&) = delete;
  ConcurrentSkipList& operator=(const ConcurrentSkipList&) = delete;

  /// Attempt-long reader pin (DESIGN.md §12): mirrors
  /// StripedHashMap::reader_pin — pin once per transaction attempt so the
  /// per-operation Guards below become nested no-ops. Returns false if the
  /// slot was already pinned (the slot is owner-thread-only, so an observed
  /// pin is the caller's own).
  bool reader_pin(unsigned slot) const {
    if (ebr_.pinned(slot)) return false;
    ebr_.enter(slot);
    return true;
  }
  void reader_unpin(unsigned slot) const { ebr_.exit(slot); }

  /// Insert or update; returns the previous value if the key was present.
  std::optional<V> put(const K& key, const V& value) {
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    const int top = random_level();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      const int found = find(key, preds, succs);
      if (found != -1) {
        Node* node = succs[found];
        if (!node->marked.load(std::memory_order_acquire)) {
          // Present (or still linking): update the value in place.
          while (!node->fully_linked.load(std::memory_order_acquire)) {
          }
          std::lock_guard<std::mutex> g(node->mu);
          if (node->marked.load(std::memory_order_acquire)) continue;
          std::optional<V> old = node->value;
          node->value = value;
          return old;
        }
        continue;  // marked: a concurrent remove is in flight; retry
      }
      // Absent: link a new node, locking predecessors bottom-up.
      std::unique_lock<std::mutex> pred_locks[kMaxLevel];
      bool valid = true;
      Node* last_locked = nullptr;
      for (int level = 0; valid && level < top; ++level) {
        Node* pred = preds[level];
        Node* succ = succs[level];
        if (pred != last_locked) {
          pred_locks[level] = std::unique_lock<std::mutex>(pred->mu);
          last_locked = pred;
        }
        valid = !pred->marked.load(std::memory_order_acquire) &&
                pred->next[level].load(std::memory_order_acquire) == succ;
      }
      if (!valid) continue;

      Node* node = new Node(key, value, top);
      for (int level = 0; level < top; ++level) {
        node->next[level].store(succs[level], std::memory_order_relaxed);
      }
      for (int level = 0; level < top; ++level) {
        preds[level]->next[level].store(node, std::memory_order_release);
      }
      node->fully_linked.store(true, std::memory_order_release);
      size_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }

  std::optional<V> get(const K& key) const {
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found =
        const_cast<ConcurrentSkipList*>(this)->find(key, preds, succs);
    if (found == -1) return std::nullopt;
    Node* node = succs[found];
    if (!node->fully_linked.load(std::memory_order_acquire) ||
        node->marked.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    std::lock_guard<std::mutex> g(node->mu);
    if (node->marked.load(std::memory_order_acquire)) return std::nullopt;
    return node->value;
  }

  bool contains(const K& key) const { return get(key).has_value(); }

  /// Remove; returns the removed value if present.
  std::optional<V> remove(const K& key) {
    // The guard both protects our own traversal and satisfies the EBR
    // contract that the physical unlink below is performed while pinned.
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    Node* victim = nullptr;
    bool is_marked = false;
    int top_level = -1;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    std::unique_lock<std::mutex> victim_lock;
    for (;;) {
      const int found = find(key, preds, succs);
      if (!is_marked) {
        if (found == -1) return std::nullopt;
        victim = succs[found];
        if (!victim->fully_linked.load(std::memory_order_acquire) ||
            victim->top_level != found ||
            victim->marked.load(std::memory_order_acquire)) {
          if (victim->marked.load(std::memory_order_acquire)) {
            return std::nullopt;
          }
          continue;
        }
        top_level = victim->top_level;
        victim_lock = std::unique_lock<std::mutex>(victim->mu);
        if (victim->marked.load(std::memory_order_acquire)) {
          return std::nullopt;  // lost the race to another remover
        }
        victim->marked.store(true, std::memory_order_release);
        is_marked = true;
      }
      // Lock predecessors and validate, then physically unlink.
      std::unique_lock<std::mutex> pred_locks[kMaxLevel];
      bool valid = true;
      Node* last_locked = nullptr;
      for (int level = 0; valid && level <= top_level; ++level) {
        Node* pred = preds[level];
        if (pred != last_locked) {
          pred_locks[level] = std::unique_lock<std::mutex>(pred->mu);
          last_locked = pred;
        }
        valid = !pred->marked.load(std::memory_order_acquire) &&
                pred->next[level].load(std::memory_order_acquire) == victim;
      }
      if (!valid) continue;

      for (int level = top_level; level >= 0; --level) {
        preds[level]->next[level].store(
            victim->next[level].load(std::memory_order_acquire),
            std::memory_order_release);
      }
      std::optional<V> old = victim->value;
      victim_lock.unlock();
      retire(victim);
      size_.fetch_sub(1, std::memory_order_relaxed);
      return old;
    }
  }

  /// Weakly-consistent ordered traversal of [lo, hi] (inclusive): visits
  /// each present key at most once, in order; concurrent updates may or may
  /// not be observed (like CHM iteration). Transactional consistency is the
  /// wrapper's job.
  template <class F>
  void range_for_each(const K& lo, const K& hi, F&& f) const {
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    Compare less{};
    const Node* node = head_->next[0].load(std::memory_order_acquire);
    while (node) {
      if (less(hi, node->key)) break;
      if (!less(node->key, lo) &&
          node->fully_linked.load(std::memory_order_acquire) &&
          !node->marked.load(std::memory_order_acquire)) {
        // Value reads race with in-place updates only for non-atomic V;
        // lock briefly for a torn-free copy.
        Node* mut = const_cast<Node*>(node);
        std::lock_guard<std::mutex> g(mut->mu);
        if (!node->marked.load(std::memory_order_acquire)) {
          f(node->key, mut->value);
        }
      }
      node = node->next[0].load(std::memory_order_acquire);
    }
  }

  /// Smallest key >= lo, if any (weakly consistent).
  std::optional<K> ceiling_key(const K& lo) const {
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    Compare less{};
    const Node* node = head_->next[0].load(std::memory_order_acquire);
    while (node) {
      if (!less(node->key, lo) &&
          node->fully_linked.load(std::memory_order_acquire) &&
          !node->marked.load(std::memory_order_acquire)) {
        return node->key;
      }
      node = node->next[0].load(std::memory_order_acquire);
    }
    return std::nullopt;
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  /// Structural check for quiescent use (no concurrent operation), run in
  /// every build. After the plankton Skiplist2 invariants, adapted to
  /// chains that end in nullptr rather than a tail sentinel: the head is
  /// the one is_head node, fully linked and never marked; every level's
  /// chain is strictly ascending under Compare; a node reached on level L
  /// has top_level >= L; the level L+1 chain is a subsequence of the level
  /// L chain; every reachable node is fully linked and unmarked; and the
  /// level-0 chain holds size() nodes. Returns the first violation as text,
  /// empty when the list is sound.
  std::string check_invariants() const {
    constexpr auto kAcq = std::memory_order_acquire;
    if (!head_->is_head) return "head: not flagged as the head";
    if (!head_->fully_linked.load(kAcq)) return "head: not fully linked";
    if (head_->marked.load(kAcq)) return "head: marked";
    Compare less{};
    std::size_t linked = 0;
    // Per-level walks first: an ascending chain cannot cycle, so the
    // subsequence walks below terminate.
    for (int level = 0; level < kMaxLevel; ++level) {
      const Node* prev = nullptr;
      std::size_t i = 0;
      for (const Node* n = head_->next[level].load(kAcq); n != nullptr;
           prev = n, n = n->next[level].load(kAcq), ++i) {
        const auto at = [&] {
          return "level " + std::to_string(level) + " node " +
                 std::to_string(i) + ": ";
        };
        if (n->is_head) return at() + "the head is linked again";
        if (n->top_level < level) {
          return at() + "top_level " + std::to_string(n->top_level) +
                 " is below the level it is linked on";
        }
        if (n->marked.load(kAcq)) return at() + "marked but still linked";
        if (!n->fully_linked.load(kAcq)) return at() + "not fully linked";
        if (prev != nullptr && !less(prev->key, n->key)) {
          return at() + "key not above its predecessor's";
        }
        if (level == 0) ++linked;
      }
    }
    for (int level = 0; level + 1 < kMaxLevel; ++level) {
      const Node* below = head_->next[level].load(kAcq);
      for (const Node* n = head_->next[level + 1].load(kAcq); n != nullptr;
           n = n->next[level + 1].load(kAcq)) {
        while (below != nullptr && below != n) {
          below = below->next[level].load(kAcq);
        }
        if (below == nullptr) {
          return "level " + std::to_string(level + 1) +
                 ": a node is missing from level " + std::to_string(level);
        }
      }
    }
    if (linked != size()) {
      return "size() is " + std::to_string(size()) + " but level 0 links " +
             std::to_string(linked) + " nodes";
    }
    return {};
  }

  /// Reclamation observability (tests/monitoring): nodes retired by
  /// remove(), nodes already freed, and the difference still in limbo.
  std::uint64_t reclaim_retired() const noexcept {
    return ebr_.retired_count();
  }
  std::uint64_t reclaim_freed() const noexcept {
    return ebr_.reclaimed_count();
  }
  std::uint64_t reclaim_pending() const noexcept { return ebr_.pending(); }

  /// Drain all deferred frees. Caller promises no concurrent operations
  /// (a quiescent point). Returns the number of nodes freed.
  std::size_t quiesce() noexcept { return ebr_.quiesce(); }

 private:
  /// Standard lazy-skip-list find: fills preds/succs at every level and
  /// returns the highest level at which the key was found, or -1.
  int find(const K& key, Node** preds, Node** succs) {
    Compare less{};
    int found = -1;
    Node* pred = head_;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      Node* curr = pred->next[level].load(std::memory_order_acquire);
      while (curr && less(curr->key, key)) {
        pred = curr;
        curr = pred->next[level].load(std::memory_order_acquire);
      }
      if (found == -1 && curr && !less(key, curr->key) &&
          !less(curr->key, key)) {
        found = level;
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    return found;
  }

  int random_level() {
    thread_local Xoshiro256 rng(rng_seed_ ^
                                std::hash<std::thread::id>{}(
                                    std::this_thread::get_id()));
    // Cap below kMaxLevel for determinism with the pre-EBR layout (the top
    // slot used to carry the retired-stack link; keeping the cap preserves
    // tower-height distributions across seeds).
    int level = 1;
    while (level < kMaxLevel - 1 && (rng() & 3) == 0) ++level;  // p = 1/4
    return level;
  }

  /// Defer the victim's free by three grace periods. Caller holds the
  /// operation guard (the unlink above happened under that pin).
  void retire(Node* node) {
    ebr_.retire(stm::ThreadRegistry::slot(), &node->hook,
                &ConcurrentSkipList::reclaim_node, nullptr);
  }

  static void reclaim_node(ebr::Retired* r, void* /*ctx*/) {
    delete reinterpret_cast<Node*>(r);  // hook is Node's first member
  }

  Node* head_;
  std::atomic<std::size_t> size_{0};
  // mutable: read-only operations pin the domain too (const interface).
  mutable ebr::EbrDomain ebr_{stm::ThreadRegistry::kMaxSlots};
  std::uint64_t rng_seed_;
};

}  // namespace proust::containers
