// A lock-striped concurrent hash map, the stand-in for Java's
// ConcurrentHashMap in the paper's LazyHashMap / eager TxnHashMap wrappers.
// Linearizable per-key operations; `size()` is a sum of per-stripe counts
// (sequentially consistent only when quiescent, as with CHM — the Proustian
// wrappers reify size out of the abstract state precisely because of this,
// see Listing 2).
//
// Writers serialize per stripe on a mutex; readers are LOCK-FREE. Each
// stripe is a fixed set of bucket chains of immutable nodes linked through
// atomic pointers: a get pins the map's EBR domain, loads the bucket head
// (acquire) and walks the chain without ever blocking. Mutators publish
// with release stores and EBR-retire unlinked nodes, so a concurrent
// reader either sees a node's fully-constructed contents or does not see
// the node at all, and never touches freed memory (DESIGN.md §12 — this is
// what makes the wrappers' unlocked read fast path a real win rather than
// "skip one lock, take another").
//
// The bucket arrays never rehash: chains simply grow past the intended
// load factor. This keeps node addresses stable for the lifetime of an
// entry (get_or_create_ref relies on it) and keeps readers coherent
// without a table-pointer indirection; size the stripe count for the
// expected key range.
//
// Values small enough for a lock-free std::atomic<V> are updated in place
// (replace allocates nothing — the steady-state zero-alloc invariant the
// stm_alloc suite pins); larger values are published by swapping in a
// fresh node and retiring the old one.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ebr.hpp"
#include "common/hashing.hpp"
#include "stm/thread_registry.hpp"

namespace proust::containers {

template <class K, class V, class Hasher = proust::Hash<K>>
class StripedHashMap {
 public:
  explicit StripedHashMap(std::size_t stripes = 64)
      : ebr_(stm::ThreadRegistry::kMaxSlots), stripes_(next_pow2(stripes)),
        stripe_bits_(static_cast<unsigned>(std::countr_zero(stripes_))),
        shards_(stripes_) {}

  StripedHashMap(const StripedHashMap&) = delete;
  StripedHashMap& operator=(const StripedHashMap&) = delete;

  ~StripedHashMap() {
    // No concurrent access by contract; the EBR domain's destructor drains
    // whatever retire() deferred.
    for (Shard& s : shards_) {
      for (std::atomic<Node*>& b : s.buckets) {
        Node* n = b.load(std::memory_order_relaxed);
        while (n != nullptr) {
          Node* next = n->next.load(std::memory_order_relaxed);
          delete n;
          n = next;
        }
      }
    }
  }

  /// Insert or replace; returns the previous mapping if any. A replace
  /// publishes a fresh node before unlinking the old one, so concurrent
  /// readers always find the key present (old value or new, never absent).
  std::optional<V> put(const K& key, V value) {
    const std::size_t h = Hasher{}(key);
    Shard& s = shards_[h & (stripes_ - 1)];
    const unsigned slot = stm::ThreadRegistry::slot();
    const ebr::EbrDomain::Guard guard(ebr_, slot);
    std::lock_guard<std::mutex> g(s.mu);
    std::atomic<Node*>& head = s.buckets[bucket_of(h)];
    Node* prev = nullptr;
    Node* n = head.load(std::memory_order_relaxed);
    while (n != nullptr && !(n->key == key)) {
      prev = n;
      n = n->next.load(std::memory_order_relaxed);
    }
    if (n == nullptr) {
      head.store(new Node(key, std::move(value),
                          head.load(std::memory_order_relaxed)),
                 std::memory_order_release);
      ++s.count;
      return std::nullopt;
    }
    if constexpr (kAtomicValues) {
      std::optional<V> old = n->value.load(std::memory_order_relaxed);
      n->value.store(std::move(value), std::memory_order_release);
      return old;
    } else {
      std::optional<V> old = n->value;
      // The fresh head skips n when n *is* the head; otherwise it keeps the
      // whole old chain and n is unlinked in place afterwards.
      Node* fresh =
          new Node(key, std::move(value),
                   prev == nullptr ? n->next.load(std::memory_order_relaxed)
                                   : head.load(std::memory_order_relaxed));
      head.store(fresh, std::memory_order_release);
      if (prev != nullptr) {
        prev->next.store(n->next.load(std::memory_order_relaxed),
                         std::memory_order_release);
      }
      retire(slot, n);
      return old;
    }
  }

  /// Insert only if absent; returns the existing mapping if present.
  std::optional<V> put_if_absent(const K& key, V value) {
    const std::size_t h = Hasher{}(key);
    Shard& s = shards_[h & (stripes_ - 1)];
    std::lock_guard<std::mutex> g(s.mu);
    std::atomic<Node*>& head = s.buckets[bucket_of(h)];
    for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) return read_value(n);
    }
    head.store(new Node(key, std::move(value),
                        head.load(std::memory_order_relaxed)),
               std::memory_order_release);
    ++s.count;
    return std::nullopt;
  }

  std::optional<V> get(const K& key) const {
    return get_hashed(Hasher{}(key), key);
  }

  bool contains(const K& key) const {
    return contains_hashed(Hasher{}(key), key);
  }

  /// Attempt-long reader pin (DESIGN.md §12): a transactional wrapper pins
  /// its thread's slot once on the first read of an attempt and
  /// unpins at finish, so the per-read Guards inside get/contains become
  /// nested no-ops — one announce fence per attempt instead of one per
  /// lookup. Returns false if the slot was already pinned (the slot is
  /// owner-thread-only, so an observed pin is the caller's own).
  bool reader_pin(unsigned slot) const {
    if (ebr_.pinned(slot)) return false;
    ebr_.enter(slot);
    return true;
  }
  void reader_unpin(unsigned slot) const { ebr_.exit(slot); }

  /// Hash once, use everywhere: wrappers compute `hash_of` a single time
  /// per read and feed it to both the bucket prefetch and the lookup
  /// itself.
  std::size_t hash_of(const K& key) const noexcept { return Hasher{}(key); }

  /// Start the bucket head's cache line toward this core. A transactional
  /// wrapper knows the hash several branches before it issues the chain
  /// walk (the CA slot's orec load); prefetching here overlaps that work
  /// with the line fill, which matters on the unlocked read path where no
  /// lock RMW hides the memory latency.
  void prefetch_bucket(std::size_t h) const noexcept {
    __builtin_prefetch(&shards_[h & (stripes_ - 1)].buckets[bucket_of(h)]);
  }
  std::size_t stripe_of_hash(std::size_t h) const noexcept {
    return h & (stripes_ - 1);
  }

  std::optional<V> get_hashed(std::size_t h, const K& key) const {
    const Shard& s = shards_[h & (stripes_ - 1)];
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    for (const Node* n =
             s.buckets[bucket_of(h)].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (n->key == key) return read_value(n);
    }
    return std::nullopt;
  }

  bool contains_hashed(std::size_t h, const K& key) const {
    const Shard& s = shards_[h & (stripes_ - 1)];
    const ebr::EbrDomain::Guard guard(ebr_, stm::ThreadRegistry::slot());
    for (const Node* n =
             s.buckets[bucket_of(h)].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (n->key == key) return true;
    }
    return false;
  }

  /// Remove; returns the removed mapping if any.
  std::optional<V> remove(const K& key) {
    const std::size_t h = Hasher{}(key);
    Shard& s = shards_[h & (stripes_ - 1)];
    const unsigned slot = stm::ThreadRegistry::slot();
    const ebr::EbrDomain::Guard guard(ebr_, slot);
    std::lock_guard<std::mutex> g(s.mu);
    std::atomic<Node*>& head = s.buckets[bucket_of(h)];
    Node* prev = nullptr;
    Node* n = head.load(std::memory_order_relaxed);
    while (n != nullptr && !(n->key == key)) {
      prev = n;
      n = n->next.load(std::memory_order_relaxed);
    }
    if (n == nullptr) return std::nullopt;
    std::optional<V> old = read_value(n);
    Node* next = n->next.load(std::memory_order_relaxed);
    if (prev != nullptr) {
      prev->next.store(next, std::memory_order_release);
    } else {
      head.store(next, std::memory_order_release);
    }
    --s.count;
    retire(slot, n);
    return old;
  }

  /// Apply under the key's stripe lock; creates the entry from `make()` if
  /// absent. Used by the predication baseline to allocate per-key
  /// predicates exactly once.
  template <class Make>
  V get_or_create(const K& key, Make&& make) {
    const std::size_t h = Hasher{}(key);
    Shard& s = shards_[h & (stripes_ - 1)];
    std::lock_guard<std::mutex> g(s.mu);
    std::atomic<Node*>& head = s.buckets[bucket_of(h)];
    for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) return read_value(n);
    }
    Node* fresh = new Node(key, make(), head.load(std::memory_order_relaxed));
    head.store(fresh, std::memory_order_release);
    ++s.count;
    return read_value(fresh);
  }

  /// Like get_or_create but returns a reference to the mapped value. Node
  /// addresses are stable (no rehashing), so the reference stays valid as
  /// long as the entry is never removed or replaced — which is exactly the
  /// predication use (predicates are allocated once and never collected,
  /// matching the paper's §7 methodology note). Mutating through the
  /// reference is the caller's synchronization problem; the lock-free read
  /// path must not be used for entries mutated this way.
  template <class Make>
  V& get_or_create_ref(const K& key, Make&& make) {
    static_assert(!kAtomicValues,
                  "in-place atomic values have no stable V&; use "
                  "get_or_create for small trivially-copyable V");
    const std::size_t h = Hasher{}(key);
    Shard& s = shards_[h & (stripes_ - 1)];
    std::lock_guard<std::mutex> g(s.mu);
    std::atomic<Node*>& head = s.buckets[bucket_of(h)];
    for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      if (n->key == key) return n->value;
    }
    Node* fresh =
        new Node(key, make(), head.load(std::memory_order_relaxed));
    head.store(fresh, std::memory_order_release);
    ++s.count;
    return fresh->value;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> g(s.mu);
      n += s.count;
    }
    return n;
  }

  bool empty() const { return size() == 0; }

  void clear() {
    const unsigned slot = stm::ThreadRegistry::slot();
    const ebr::EbrDomain::Guard guard(ebr_, slot);
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> g(s.mu);
      for (std::atomic<Node*>& b : s.buckets) {
        Node* n = b.load(std::memory_order_relaxed);
        b.store(nullptr, std::memory_order_release);
        while (n != nullptr) {
          Node* next = n->next.load(std::memory_order_relaxed);
          retire(slot, n);
          n = next;
        }
      }
      s.count = 0;
    }
  }

  /// Structural check for quiescent use (no concurrent mutator), run in
  /// every build: each node sits in the shard and bucket its hash selects,
  /// no key repeats within a shard, and each shard's count equals the total
  /// length of its chains. Returns the first violation as text, empty when
  /// the map is sound. With every node in its hash's bucket, a repeated key
  /// can only sit twice in one chain, so the duplicate scan stays per chain.
  std::string check_invariants() const {
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      const Shard& s = shards_[si];
      std::lock_guard<std::mutex> g(s.mu);
      std::size_t nodes = 0;
      for (std::size_t b = 0; b < kBucketsPerShard; ++b) {
        const Node* head = s.buckets[b].load(std::memory_order_acquire);
        for (const Node* n = head; n != nullptr;
             n = n->next.load(std::memory_order_acquire)) {
          const std::size_t h = Hasher{}(n->key);
          const auto at = [&] {
            return "shard " + std::to_string(si) + " bucket " +
                   std::to_string(b) + ": ";
          };
          if (stripe_of_hash(h) != si || bucket_of(h) != b) {
            return at() + "a node's hash selects shard " +
                   std::to_string(stripe_of_hash(h)) + " bucket " +
                   std::to_string(bucket_of(h));
          }
          for (const Node* m = head; m != n;
               m = m->next.load(std::memory_order_acquire)) {
            if (m->key == n->key) return at() + "a key repeats in the chain";
          }
          ++nodes;
        }
      }
      if (nodes != s.count) {
        return "shard " + std::to_string(si) + ": count " +
               std::to_string(s.count) + " but chains hold " +
               std::to_string(nodes) + " nodes";
      }
    }
    return {};
  }

  /// Iterate a weakly-consistent view: each stripe is visited under its own
  /// lock, but the stripes are not frozen relative to one another.
  template <class F>
  void for_each(F&& f) const {
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> g(s.mu);
      for (const std::atomic<Node*>& b : s.buckets) {
        for (const Node* n = b.load(std::memory_order_relaxed); n != nullptr;
             n = n->next.load(std::memory_order_relaxed)) {
          const V v = read_value(n);
          f(n->key, v);
        }
      }
    }
  }

 private:
  // Chains per stripe; with the intended load the chain a reader walks is
  // one or two nodes. Past it, lookups degrade to linear scans of longer
  // chains — still correct, just slower.
  static constexpr std::size_t kBucketsPerShard = 16;

  // Small trivially-copyable values live in a lock-free atomic and are
  // replaced in place; everything else is immutable once published and a
  // replace swaps whole nodes.
  static constexpr bool kAtomicValues =
      std::is_trivially_copyable_v<V> && sizeof(V) <= sizeof(void*) &&
      alignof(V) <= alignof(void*);
  using ValueSlot = std::conditional_t<kAtomicValues, std::atomic<V>, V>;

  struct Node {
    // `hook` first, so a Retired* retires back into `delete (Node*)`.
    ebr::Retired hook;
    const K key;
    ValueSlot value;
    std::atomic<Node*> next;
    Node(const K& k, V v, Node* nx)
        : hook{}, key(k), value(std::move(v)), next(nx) {}
  };

  static V read_value(const Node* n) {
    if constexpr (kAtomicValues) {
      return n->value.load(std::memory_order_acquire);
    } else {
      return n->value;
    }
  }

  struct Shard {
    mutable std::mutex mu;  // writers only; readers never take it
    std::array<std::atomic<Node*>, kBucketsPerShard> buckets{};
    std::size_t count = 0;  // guarded by mu
  };

  // Stripe selection eats the low hash bits; bucket selection uses the
  // next ones so co-striped keys still spread across chains.
  std::size_t bucket_of(std::size_t h) const noexcept {
    return (h >> stripe_bits_) & (kBucketsPerShard - 1);
  }

  void retire(unsigned slot, Node* n) {
    ebr_.retire(
        slot, &n->hook,
        [](ebr::Retired* r, void*) { delete reinterpret_cast<Node*>(r); },
        nullptr);
  }

  mutable ebr::EbrDomain ebr_;
  std::size_t stripes_;
  unsigned stripe_bits_;
  mutable std::vector<Shard> shards_;
};

}  // namespace proust::containers
