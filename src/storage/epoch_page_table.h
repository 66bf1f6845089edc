#ifndef FLAT_STORAGE_EPOCH_PAGE_TABLE_H_
#define FLAT_STORAGE_EPOCH_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"

namespace flat {

/// BufferPool's residency bookkeeping: an epoch-stamped, direct-mapped page
/// table.
///
/// This replaces the previous hash-based LRU set (std::unordered_map +
/// std::list): every probe is now one array access — the entry for page `id`
/// lives at index `id`, and the page is resident iff its stamp equals the
/// table's current epoch. `Clear()` is O(1): bumping the epoch invalidates
/// every entry at once (a full restamp happens only when the 32-bit epoch
/// wraps, i.e. every 2^32 - 1 clears).
///
/// Semantics are *identical* to the container pair it replaces — the same
/// Touch/Insert/Clear contract, and for bounded tables the exact same LRU
/// eviction order, maintained as an intrusive doubly-linked list in a side
/// array. A cache therefore produces the same hit/miss sequence (and thus
/// identical IoStats) by construction. Unbounded tables (capacity 0, the
/// cold-cache benchmark methodology and every default in this repository)
/// skip the list entirely: Touch and Insert touch exactly one stamp.
///
/// Memory: the table grows to the highest page id probed — 4 bytes per
/// slot unbounded (~0.1% of the file at 4 KiB pages), plus 8 bytes per
/// slot for the LRU links when a capacity is set. A direct-mapped table
/// deliberately trades this O(file pages) footprint for O(1) everything; a
/// tiny bounded cache over a very large file is the one configuration where
/// the replaced hash-based set was more compact.
/// Not thread-safe — callers provide their own locking.
class EpochPageTable {
 public:
  /// `capacity` bounds the resident set (0 means unbounded).
  explicit EpochPageTable(size_t capacity = 0) : capacity_(capacity) {}

  /// True (and refreshes LRU position when bounded) if `id` is resident.
  bool Touch(PageId id) {
    if (id >= stamps_.size() || stamps_[id] != epoch_) return false;
    if (capacity_ > 0 && head_ != id) {
      Unlink(id);
      PushFront(id);
    }
    return true;
  }

  /// Makes `id` resident, evicting the least-recently-used entry if full.
  /// The caller has already established `id` is absent (via Touch).
  void Insert(PageId id) {
    if (id >= stamps_.size()) Grow(id);
    if (capacity_ > 0) {
      if (size_ >= capacity_) {
        const PageId victim = tail_;
        Unlink(victim);
        stamps_[victim] = epoch_ - 1;  // any stamp != epoch_
        --size_;
      }
      PushFront(id);
    }
    stamps_[id] = epoch_;
    ++size_;
  }

  /// Drops every entry (cold cache) in O(1).
  void Clear() {
    if (++epoch_ == 0) {
      // Epoch wrapped (after 2^32 - 1 clears): restamp everything once so no
      // stale entry can alias the new epoch.
      for (uint32_t& s : stamps_) s = 0;
      epoch_ = 1;
    }
    size_ = 0;
    head_ = kInvalidPageId;
    tail_ = kInvalidPageId;
  }

  bool Contains(PageId id) const {
    return id < stamps_.size() && stamps_[id] == epoch_;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

 private:
  struct Link {
    PageId prev = kInvalidPageId;
    PageId next = kInvalidPageId;
  };

  void Grow(PageId id) {
    size_t n = stamps_.empty() ? 256 : stamps_.size();
    while (n <= id) n *= 2;
    stamps_.resize(n);  // new stamps start at 0, i.e. stale
    if (capacity_ > 0) links_.resize(n);
  }

  void PushFront(PageId id) {
    Link& e = links_[id];
    e.prev = kInvalidPageId;
    e.next = head_;
    if (head_ != kInvalidPageId) links_[head_].prev = id;
    head_ = id;
    if (tail_ == kInvalidPageId) tail_ = id;
  }

  void Unlink(PageId id) {
    Link& e = links_[id];
    if (e.prev != kInvalidPageId) links_[e.prev].next = e.next;
    if (e.next != kInvalidPageId) links_[e.next].prev = e.prev;
    if (head_ == id) head_ = e.next;
    if (tail_ == id) tail_ = e.prev;
  }

  size_t capacity_;
  // Resident iff stamps_[id] == epoch_. The LRU links live in a separate
  // side array allocated only for bounded tables, so the (default)
  // unbounded configuration costs 4 bytes per slot.
  std::vector<uint32_t> stamps_;
  std::vector<Link> links_;  // MRU at head_, LRU at tail_; bounded only
  uint32_t epoch_ = 1;       // zero-initialized stamps start out stale
  size_t size_ = 0;
  PageId head_ = kInvalidPageId;
  PageId tail_ = kInvalidPageId;
};

}  // namespace flat

#endif  // FLAT_STORAGE_EPOCH_PAGE_TABLE_H_
