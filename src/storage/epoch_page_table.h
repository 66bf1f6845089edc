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
/// Every probe is one array access — the entry for page `id` lives at index
/// `id`, and the page is resident iff its stamp equals the table's current
/// epoch. `Clear()` is O(1): bumping the epoch invalidates every entry at
/// once (a full restamp happens only when the 32-bit epoch wraps, i.e. every
/// 2^32 - 1 clears). The table is unbounded — nothing is ever evicted, the
/// cold-cache benchmark methodology — so Touch and Insert touch exactly one
/// stamp.
///
/// Memory: the table grows to the highest page id probed — 4 bytes per
/// slot (~0.1% of the file at 4 KiB pages). A direct-mapped table
/// deliberately trades this O(file pages) footprint for O(1) everything.
/// Not thread-safe — callers provide their own locking.
class EpochPageTable {
 public:
  /// True if `id` is resident.
  bool Touch(PageId id) const { return Contains(id); }

  /// Makes `id` resident. The caller has already established `id` is absent
  /// (via Touch).
  void Insert(PageId id) {
    if (id >= stamps_.size()) Grow(id);
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
  }

  bool Contains(PageId id) const {
    return id < stamps_.size() && stamps_[id] == epoch_;
  }

  size_t size() const { return size_; }

 private:
  void Grow(PageId id) {
    size_t n = stamps_.empty() ? 256 : stamps_.size();
    while (n <= id) n *= 2;
    stamps_.resize(n);  // new stamps start at 0, i.e. stale
  }

  std::vector<uint32_t> stamps_;  // resident iff stamps_[id] == epoch_
  uint32_t epoch_ = 1;            // zero-initialized stamps start out stale
  size_t size_ = 0;
};

}  // namespace flat

#endif  // FLAT_STORAGE_EPOCH_PAGE_TABLE_H_
