#ifndef FLAT_STORAGE_BUFFER_POOL_H_
#define FLAT_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>

#include "storage/epoch_page_table.h"
#include "storage/io_stats.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"

namespace flat {

/// Single-threaded, unbounded page cache in front of a PageStore.
///
/// A `Read` that misses the cache counts one page read (in the page's
/// category) against the attached IoStats; hits are free, mirroring the OS
/// buffer cache of the paper's testbed. Nothing is ever evicted: a query
/// reads each page at most once. `Clear()` empties the cache — the paper
/// clears OS caches and disk buffers before every query, and the benchmark
/// harness does the same through this method. Clearing is O(1) (an epoch
/// bump in the page table), so reusing one pool with a Clear() per query is
/// exactly as cold as — and much cheaper than — constructing a fresh pool
/// per query. Concurrent readers each use their own pool (the QueryEngine
/// keeps one per worker).
class BufferPool final : public PageCache {
 public:
  BufferPool(const PageStore* store, IoStats* stats);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page, charging a read on miss. The returned pointer aliases
  /// the PageStore's storage and stays valid for the store's lifetime (see
  /// PageCache::Read). A miss on an id at or beyond the store's page count
  /// (a corrupt pointer in a loaded file) throws std::runtime_error naming
  /// the page, before any read is charged; the engine reports it as the
  /// query's kIoError.
  const char* Read(PageId id) override;

  /// Drops every cached page (cold cache).
  void Clear() { table_.Clear(); }

  /// Redirects future miss charges to `stats` (never null). Lets a reused
  /// pool account each query against its own IoStats — the QueryEngine pairs
  /// this with Clear() to keep the paper's cold-per-query methodology while
  /// amortizing the pool across a worker's whole batch share.
  void set_stats(IoStats* stats);

  /// True if the page is currently cached (test hook; does not touch the
  /// counters).
  bool IsCached(PageId id) const { return table_.Contains(id); }

  size_t cached_pages() const { return table_.size(); }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  IoStats* stats() { return stats_; }
  const PageStore& store() const { return *store_; }

 private:
  const PageStore* store_;
  IoStats* stats_;
  EpochPageTable table_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace flat

#endif  // FLAT_STORAGE_BUFFER_POOL_H_
