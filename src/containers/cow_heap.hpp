// A concurrent copy-on-write min-priority-queue with O(1) snapshots — the
// "new base copy-on-write data structure" the paper built for its
// LazyPriorityQueue (§4, footnote 4: no publicly available concurrent heap
// supported efficient snapshots, so one was designed).
//
// Representation: a persistent leftist heap (path-copying merge, O(log n)
// amortized per update) published as a raw `std::atomic<const Node*>` and
// updated with a CAS loop. Reclamation is pure EBR — nodes carry an
// intrusive ebr::Retired hook and there are NO per-node reference counts:
// readers pin the epoch domain, traverse raw pointers, and unpin; a
// successful CAS retires exactly the nodes the new version displaced
// (the copied merge path), whose subtrees remain shared by pointer.
// Compared to the earlier shared_ptr representation this removes an atomic
// count round-trip per node on every path copy and every snapshot drop —
// traffic that serialized concurrent updaters on hot heaps.
//
// Ownership ledger (the whole correctness argument):
//  - A mutating op records every node it allocates (`created`) and every
//    published node its new version no longer references (`displaced`).
//  - CAS success: displaced ∧ created → delete now (never published, no
//    reader can hold it); displaced ∧ published → retire to EBR (a pinned
//    reader may still traverse it); created ∧ ¬displaced → published,
//    forget.
//  - CAS failure: every created node is garbage (never published) → delete,
//    clear, rebuild against the new root. Displaced nodes were not touched.
//  - Snapshots pin the domain for their whole lifetime (counted pins, so
//    they nest with Guards and attempt-long wrapper pins) and own every
//    node their local mutations create, deleting them wholesale on
//    destruction; shared nodes they reference stay alive because the pin
//    holds the grace period open. Snapshots are move-only and must be
//    destroyed on the thread (registry slot) that took them — exactly the
//    transaction-shadow-copy lifecycle of SnapshotReplayLog.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ebr.hpp"
#include "stm/thread_registry.hpp"

namespace proust::containers {

template <class T, class Compare = std::less<T>>
class CowHeap {
  struct Node {
    mutable ebr::Retired hook;  // first: retire/reclaim recover the node
    T value;
    int rank;
    const Node* left;
    const Node* right;
  };

  /// Per-op allocation ledger (see file comment). Thread-local and reused,
  /// so steady-state ops allocate nothing beyond the nodes themselves.
  struct OpTrace {
    std::vector<const Node*> created;
    std::vector<const Node*> displaced;
    void clear() noexcept {
      created.clear();
      displaced.clear();
    }
  };

 public:
  CowHeap() : ebr_(stm::ThreadRegistry::kMaxSlots), root_(nullptr), size_(0) {}
  CowHeap(const CowHeap&) = delete;
  CowHeap& operator=(const CowHeap&) = delete;

  ~CowHeap() {
    // Destruction implies quiescence: delete the live tree; limbo nodes
    // drain (and delete themselves) with the domain.
    delete_tree(root_.load(std::memory_order_relaxed));
  }

  void insert(T value) {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    OpTrace& tr = trace();
    tr.clear();
    for (;;) {
      const Node* old_root = root_.load(std::memory_order_acquire);
      const Node* single = make(tr, value, 1, nullptr, nullptr);
      const Node* new_root = merge(tr, old_root, single);
      if (root_.compare_exchange_weak(old_root,
                                      new_root,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        settle(slot, tr);
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      discard(tr);  // lost the race; re-merge against the new root
    }
  }

  std::optional<T> peek_min() const {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    const Node* root = root_.load(std::memory_order_acquire);
    if (root == nullptr) return std::nullopt;
    return root->value;
  }

  std::optional<T> remove_min() {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    OpTrace& tr = trace();
    tr.clear();
    for (;;) {
      const Node* old_root = root_.load(std::memory_order_acquire);
      if (old_root == nullptr) return std::nullopt;
      const Node* new_root = merge(tr, old_root->left, old_root->right);
      if (root_.compare_exchange_weak(old_root,
                                      new_root,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        std::optional<T> ret = old_root->value;
        tr.displaced.push_back(old_root);
        settle(slot, tr);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return ret;
      }
      discard(tr);
    }
  }

  /// Linear membership scan (priority queues are not search structures; the
  /// paper's contains() on a PQueue is likewise O(n) over the multiset).
  bool contains(const T& value) const {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    return find(root_.load(std::memory_order_acquire), value);
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const {
    return root_.load(std::memory_order_acquire) == nullptr;
  }

  /// O(1) consistent snapshot with local (single-owner) mutation — the
  /// shadow-copy interface for LazyPriorityQueue. Holds an epoch pin for
  /// its lifetime (that pin is what keeps the frozen version's nodes from
  /// being reclaimed under it) and owns the nodes its own mutations create.
  /// Move-only; destroy on the thread that took it.
  class Snapshot {
   public:
    Snapshot(Snapshot&& o) noexcept
        : ebr_(o.ebr_), slot_(o.slot_), root_(o.root_), size_(o.size_),
          created_(std::move(o.created_)) {
      o.ebr_ = nullptr;
      o.created_.clear();
    }
    Snapshot& operator=(Snapshot&& o) noexcept {
      if (this != &o) {
        release();
        ebr_ = o.ebr_;
        slot_ = o.slot_;
        root_ = o.root_;
        size_ = o.size_;
        created_ = std::move(o.created_);
        o.ebr_ = nullptr;
        o.created_.clear();
      }
      return *this;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { release(); }

    void insert(T value) {
      OpTrace tr;  // displaced nodes are ignored: shared ones belong to the
                   // heap, local ones are swept by created_ at destruction
      const Node* single = make(tr, std::move(value), 1, nullptr, nullptr);
      root_ = merge(tr, root_, single);
      own(tr);
      ++size_;
    }
    std::optional<T> peek_min() const {
      if (root_ == nullptr) return std::nullopt;
      return root_->value;
    }
    std::optional<T> remove_min() {
      if (root_ == nullptr) return std::nullopt;
      T v = root_->value;
      OpTrace tr;
      root_ = merge(tr, root_->left, root_->right);
      own(tr);
      --size_;
      return v;
    }
    bool contains(const T& value) const { return find(root_, value); }
    std::size_t size() const { return size_; }
    bool empty() const { return root_ == nullptr; }

    template <class F>
    void for_each(F&& f) const {
      walk(root_, f);
    }

   private:
    friend class CowHeap;
    Snapshot(ebr::EbrDomain& ebr, unsigned slot, const Node* root,
             std::size_t size)
        : ebr_(&ebr), slot_(slot), root_(root), size_(size) {
      ebr_->enter(slot_);
    }

    void own(OpTrace& tr) {
      for (const Node* n : tr.created) created_.push_back(n);
    }
    void release() noexcept {
      if (ebr_ == nullptr) return;
      for (const Node* n : created_) delete n;
      created_.clear();
      ebr_->exit(slot_);
      ebr_ = nullptr;
    }

    ebr::EbrDomain* ebr_;
    unsigned slot_;
    const Node* root_;
    std::size_t size_;
    std::vector<const Node*> created_;  // local mutations' nodes, owned
  };

  Snapshot snapshot() const {
    // The root load happens after the snapshot's own pin (taken in its
    // constructor), so the frozen version cannot be reclaimed out from
    // under it; the pin then rides along for the snapshot's lifetime.
    const unsigned slot = stm::ThreadRegistry::slot();
    Snapshot s(ebr_, slot, nullptr, 0);
    s.root_ = root_.load(std::memory_order_acquire);
    s.size_ = size_.load(std::memory_order_acquire);
    return s;
  }

  template <class F>
  void for_each(F&& f) const {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    walk(root_.load(std::memory_order_acquire), f);
  }

  /// Structural check of the published heap, for quiescent use (no
  /// concurrent updates) in every build: heap order under Compare, the
  /// leftist property (left rank >= right rank, null at rank 0), each
  /// node's rank one above its right child's, and as many reachable nodes
  /// as size(). Returns the first violation as text, empty when sound.
  std::string check_invariants() const {
    const unsigned slot = stm::ThreadRegistry::slot();
    ebr::EbrDomain::Guard g(ebr_, slot);
    Compare less{};
    std::size_t nodes = 0;
    std::vector<const Node*> stack;
    if (const Node* root = root_.load(std::memory_order_acquire)) {
      stack.push_back(root);
    }
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      ++nodes;
      const auto at = [&] {
        return "node " + std::to_string(nodes) + " (rank " +
               std::to_string(n->rank) + "): ";
      };
      if (rank_of(n->left) < rank_of(n->right)) {
        return at() + "left rank " + std::to_string(rank_of(n->left)) +
               " below right rank " + std::to_string(rank_of(n->right));
      }
      if (n->rank != rank_of(n->right) + 1) {
        return at() + "not one above its right child's rank " +
               std::to_string(rank_of(n->right));
      }
      for (const Node* c : {n->left, n->right}) {
        if (c == nullptr) continue;
        if (less(c->value, n->value)) return at() + "a child orders first";
        stack.push_back(c);
      }
    }
    if (nodes != size()) {
      return "size() is " + std::to_string(size()) + " but " +
             std::to_string(nodes) + " nodes are reachable";
    }
    return {};
  }

  /// Reclamation observability (tests): nodes retired/pending in the domain.
  std::uint64_t reclaim_pending() const noexcept { return ebr_.pending(); }
  std::size_t quiesce() noexcept { return ebr_.quiesce(); }

 private:
  static OpTrace& trace() {
    static thread_local OpTrace tr;
    return tr;
  }

  static const Node* make(OpTrace& tr, T value, int rank, const Node* l,
                          const Node* r) {
    const Node* n = new Node{{}, std::move(value), rank, l, r};
    tr.created.push_back(n);
    return n;
  }

  /// Publish-success bookkeeping: delete never-published intermediates,
  /// retire displaced published nodes past the grace period.
  void settle(unsigned slot, OpTrace& tr) {
    for (const Node* d : tr.displaced) {
      bool was_created = false;
      for (const Node* c : tr.created) {
        if (c == d) {
          was_created = true;
          break;
        }
      }
      if (was_created) {
        delete d;
      } else {
        ebr_.retire(
            slot, &d->hook,
            [](ebr::Retired* r, void*) {
              delete reinterpret_cast<const Node*>(r);
            },
            nullptr);
      }
    }
    tr.clear();
  }

  /// CAS-failure bookkeeping: nothing was published, so every created node
  /// is garbage and every displaced node still belongs to the live version.
  static void discard(OpTrace& tr) {
    for (const Node* c : tr.created) delete c;
    tr.clear();
  }

  static void delete_tree(const Node* root) {
    std::vector<const Node*> stack;
    if (root != nullptr) stack.push_back(root);
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      if (n->left != nullptr) stack.push_back(n->left);
      if (n->right != nullptr) stack.push_back(n->right);
      delete n;
    }
  }

  static int rank_of(const Node* n) noexcept { return n ? n->rank : 0; }

  /// Path-copying merge. Every node whose copy lands in the new version is
  /// recorded displaced; every copy is recorded created. Subtrees off the
  /// merge path are shared by pointer — that sharing is what EBR (instead
  /// of per-node counts) makes safe.
  static const Node* merge(OpTrace& tr, const Node* a, const Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    Compare less{};
    const Node* top = less(b->value, a->value) ? b : a;
    const Node* other = less(b->value, a->value) ? a : b;
    const Node* merged_right = merge(tr, top->right, other);
    const Node* l = top->left;
    const Node* r = merged_right;
    if (rank_of(l) < rank_of(r)) std::swap(l, r);
    tr.displaced.push_back(top);
    return make(tr, top->value, rank_of(r) + 1, l, r);
  }

  // Explicit-stack traversals: a leftist heap's *left* spine can be O(n)
  // deep, so recursion would overflow the stack on large heaps.
  static bool find(const Node* root, const T& value) {
    Compare less{};
    std::vector<const Node*> stack;
    if (root != nullptr) stack.push_back(root);
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      if (less(value, n->value)) continue;  // min-heap property prune
      if (!less(n->value, value)) return true;  // equivalent under Compare
      if (n->left != nullptr) stack.push_back(n->left);
      if (n->right != nullptr) stack.push_back(n->right);
    }
    return false;
  }

  template <class F>
  static void walk(const Node* root, F& f) {
    std::vector<const Node*> stack;
    if (root != nullptr) stack.push_back(root);
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      f(n->value);
      if (n->left != nullptr) stack.push_back(n->left);
      if (n->right != nullptr) stack.push_back(n->right);
    }
  }

  mutable ebr::EbrDomain ebr_;  // reclaims displaced nodes
  std::atomic<const Node*> root_;
  std::atomic<std::size_t> size_;
};

}  // namespace proust::containers
