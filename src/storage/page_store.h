#ifndef FLAT_STORAGE_PAGE_STORE_H_
#define FLAT_STORAGE_PAGE_STORE_H_

#include <cstddef>
#include <cstdint>

#include "storage/page.h"

namespace flat {

/// Read-only view of a store of fixed-size pages — the query-time contract
/// shared by the in-memory simulated disk (PageFile) and the persistent
/// disk backend (DiskPageFile).
///
/// Everything downstream of index construction (BufferPool,
/// FlatIndex::Attach, the QueryEngine, ShardedFlatStore after Load) reads
/// pages through this interface, so an index can be
/// served from memory or from an mmap'd file without any change to query
/// code, results, or I/O accounting.
///
/// Contracts every implementation must honor:
///
///  - **Pointer stability.** A pointer returned by `Data(id)` stays valid
///    (and keeps aliasing the same page) for the store's whole lifetime.
///    The crawl hot path holds record pointers across further page reads
///    and depends on this (see docs/architecture.md §Storage).
///  - **Immutability.** Pages never change after the store is opened/built;
///    `Data`/`category` are safe to call concurrently from any number of
///    threads.
///  - **No I/O accounting.** Charging page reads is the PageCache layer's
///    job; `Data` itself is free of side effects on IoStats.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Raw read access to one page. Query code must not call this directly —
  /// use a PageCache so the access is charged.
  virtual const char* Data(PageId id) const = 0;

  virtual PageCategory category(PageId id) const = 0;

  virtual uint32_t page_size() const = 0;

  /// Number of pages in the store.
  virtual size_t page_count() const = 0;

  /// Number of pages in a given category.
  virtual size_t PageCountIn(PageCategory category) const = 0;

  /// Total on-disk (or simulated on-disk) size in bytes.
  virtual uint64_t SizeBytes() const {
    return page_count() * uint64_t{page_size()};
  }
};

}  // namespace flat

#endif  // FLAT_STORAGE_PAGE_STORE_H_
