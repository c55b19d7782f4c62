// Addressable max-heap over vertex ids, keyed by (key, vertex).
//
// The order is lexicographic on (key, vertex), the order in which a
// std::priority_queue<std::pair<Key, index_t>> pops, so the largest key
// wins and the higher vertex id breaks ties. Unlike a lazy priority queue,
// each vertex sits in the heap at most once: a key change re-sifts the
// vertex in place, so no stale entry is ever pushed or popped. Refinement
// (FM gains) and the separator cover (cut degrees) both keep their
// candidates here.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/types.hpp"

namespace ordo {

template <typename Key>
class GainHeap {
 public:
  /// Sizes the heap for vertex ids in [0, n) and empties it. Clearing costs
  /// only the entries still held, so a heap reused across passes is cheap
  /// to reset.
  void reset(index_t n) {
    for (const Entry& entry : entries_) pos_[index(entry.v)] = kAbsent;
    entries_.clear();
    pos_.resize(static_cast<std::size_t>(n), kAbsent);
  }

  bool empty() const { return entries_.empty(); }
  bool contains(index_t v) const { return pos_[index(v)] != kAbsent; }
  index_t top() const { return entries_.front().v; }

  void push(index_t v, Key key) {
    entries_.push_back(Entry{key, v});
    sift_up(entries_.size() - 1);
  }

  void pop() { erase(top()); }

  void erase(index_t v) {
    const auto at = static_cast<std::size_t>(pos_[index(v)]);
    pos_[index(v)] = kAbsent;
    const Entry last = entries_.back();
    entries_.pop_back();
    if (at == entries_.size()) return;
    entries_[at] = last;
    sift_down(at);
    sift_up(static_cast<std::size_t>(pos_[index(last.v)]));
  }

  /// Changes the key of a vertex already in the heap.
  void update(index_t v, Key key) {
    const auto at = static_cast<std::size_t>(pos_[index(v)]);
    const Key old = entries_[at].key;
    entries_[at].key = key;
    if (key > old) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

 private:
  struct Entry {
    Key key;
    index_t v;
  };
  static constexpr index_t kAbsent = -1;

  static std::size_t index(index_t v) { return static_cast<std::size_t>(v); }
  static bool less(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.v < b.v);
  }

  void sift_up(std::size_t at) {
    const Entry entry = entries_[at];
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!less(entries_[parent], entry)) break;
      entries_[at] = entries_[parent];
      pos_[index(entries_[at].v)] = static_cast<index_t>(at);
      at = parent;
    }
    entries_[at] = entry;
    pos_[index(entry.v)] = static_cast<index_t>(at);
  }

  void sift_down(std::size_t at) {
    const Entry entry = entries_[at];
    const std::size_t size = entries_.size();
    while (true) {
      std::size_t child = 2 * at + 1;
      if (child >= size) break;
      if (child + 1 < size && less(entries_[child], entries_[child + 1])) {
        ++child;
      }
      if (!less(entry, entries_[child])) break;
      entries_[at] = entries_[child];
      pos_[index(entries_[at].v)] = static_cast<index_t>(at);
      at = child;
    }
    entries_[at] = entry;
    pos_[index(entry.v)] = static_cast<index_t>(at);
  }

  std::vector<Entry> entries_;
  std::vector<index_t> pos_;  // slot in entries_, kAbsent when not held
};

}  // namespace ordo
