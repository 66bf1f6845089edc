#ifndef FLAT_STORAGE_PAGE_CACHE_H_
#define FLAT_STORAGE_PAGE_CACHE_H_

#include "storage/page.h"

namespace flat {

/// Interface for query-time page access. Every index query reads pages
/// through a PageCache; implementations charge a page read (in the page's
/// category) against an IoStats on cache miss, so every execution path —
/// serial loops, QueryEngine workers, the store's inline runner — is
/// accounted identically. BufferPool, one cold pool per sub-query, is the
/// library's page cache.
///
/// Thread-safety is defined by the implementation, and the contract queries
/// rely on is per-instance: one PageCache instance serves one thread at a
/// time. Concurrent query code must therefore give every thread its own
/// PageCache instance (the QueryEngine gives each worker its own pool).
class PageCache {
 public:
  virtual ~PageCache() = default;

  /// Fetches a page, charging a read on miss. Implementations must return a
  /// pointer that stays valid for the lifetime of the underlying PageStore,
  /// independent of later Reads — index code (e.g. the FLAT crawl) holds a
  /// record pointer across further Read calls. BufferPool satisfies this by
  /// returning pointers into the immutable PageStore.
  virtual const char* Read(PageId id) = 0;

  /// No-op hooks that no library code calls. They stay only because
  /// benchmark/counting_cache.h overrides them; never charge a read.
  virtual void Prefetch(PageId id) { (void)id; }
  virtual const char* Peek(PageId id) { (void)id; return nullptr; }
  virtual bool prefetch_enabled() const { return false; }
};

}  // namespace flat

#endif  // FLAT_STORAGE_PAGE_CACHE_H_
