// A mutex-protected priority queue, the stand-in for Java's
// PriorityBlockingQueue which backs the paper's eager Proustian
// PriorityQueue (Figure 3). All operations are linearizable. remove_one()
// is O(n), exactly like PriorityBlockingQueue#remove(Object) — which is why
// the eager wrapper prefers the lazy-deletion trick instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace proust::containers {

template <class T, class Compare = std::less<T>>
class BlockingPriorityQueue {
 public:
  BlockingPriorityQueue() = default;
  BlockingPriorityQueue(const BlockingPriorityQueue&) = delete;
  BlockingPriorityQueue& operator=(const BlockingPriorityQueue&) = delete;

  void add(T value) {
    std::lock_guard<std::mutex> g(mu_);
    heap_.push_back(std::move(value));
    std::push_heap(heap_.begin(), heap_.end(), inverted());
  }

  /// Remove and return the minimum (by Compare), or nullopt if empty.
  std::optional<T> poll() {
    std::lock_guard<std::mutex> g(mu_);
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), inverted());
    T v = std::move(heap_.back());
    heap_.pop_back();
    return v;
  }

  std::optional<T> peek() const {
    std::lock_guard<std::mutex> g(mu_);
    if (heap_.empty()) return std::nullopt;
    return heap_.front();
  }

  /// Remove one element comparing equivalent to `value`. O(n), like
  /// PriorityBlockingQueue#remove.
  bool remove_one(const T& value) {
    std::lock_guard<std::mutex> g(mu_);
    Compare less{};
    auto it = std::find_if(heap_.begin(), heap_.end(), [&](const T& x) {
      return !less(x, value) && !less(value, x);
    });
    if (it == heap_.end()) return false;
    *it = std::move(heap_.back());
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), inverted());
    return true;
  }

  bool contains(const T& value) const {
    std::lock_guard<std::mutex> g(mu_);
    Compare less{};
    return std::any_of(heap_.begin(), heap_.end(), [&](const T& x) {
      return !less(x, value) && !less(value, x);
    });
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return heap_.size();
  }

  bool empty() const { return size() == 0; }

  template <class F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> g(mu_);
    for (const T& v : heap_) f(v);
  }

  /// Heap order under Compare; empty when it holds, else the first element
  /// that orders before its parent. Elements may repeat (it is a multiset),
  /// so identity checks belong to the caller.
  std::string check_invariants() const {
    std::lock_guard<std::mutex> g(mu_);
    const auto bad = std::is_heap_until(heap_.begin(), heap_.end(), inverted());
    if (bad == heap_.end()) return {};
    return "element " + std::to_string(bad - heap_.begin()) +
           " orders before its parent";
  }

 private:
  // std::push_heap et al. build a max-heap; invert the comparator for a
  // min-queue matching removeMin() semantics.
  static auto inverted() {
    return [](const T& a, const T& b) { return Compare{}(b, a); };
  }

  mutable std::mutex mu_;
  std::vector<T> heap_;
};

}  // namespace proust::containers
