#ifndef FLAT_STORAGE_PAGE_FILE_H_
#define FLAT_STORAGE_PAGE_FILE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"

namespace flat {

/// A simulated disk: a growable array of fixed-size pages tagged with a
/// PageCategory.
///
/// Index *construction* writes pages directly (bulkloading is measured by
/// wall-clock time, as in the paper's Figure 10); *query execution* must go
/// through a PageCache (BufferPool), which is where page reads are counted.
/// Keeping the data in memory while accounting I/O at page granularity
/// reproduces the paper's cold-cache methodology without a physical SAS
/// array — see docs/file_format.md §1 and docs/benchmarks.md.
///
/// Storage layout: pages live in contiguous slab arenas of
/// `kArenaTargetBytes` each (the last slab is partially filled), so
/// `Data(id)` is pure address arithmetic — one shift, one mask, one
/// multiply — instead of a per-page pointer chase. The number of pages per
/// slab is a power of two fixed at construction. Slabs are never moved or
/// freed while the file lives, which yields the *pointer-stability
/// contract*: a pointer returned by `Data`/`MutableData` stays valid (and
/// keeps aliasing the same page) across any number of later `Allocate`
/// calls. The crawl hot path holds record pointers across page reads and
/// depends on this (see docs/architecture.md §Storage).
///
/// Thread-safety: Allocate/MutableData are construction-time operations and
/// must be externally synchronized (the parallel build pipeline allocates
/// serially and lets workers fill disjoint pages). Data()/category() on a
/// fully built file are safe to call from any number of threads.
///
/// PageFile is the in-memory PageStore backend; DiskPageFile
/// (storage/disk_page_file.h) serves the same serialized bytes from a real
/// file. The class is final so concrete PageFile pointers devirtualize the
/// hot accessors.
class PageFile final : public PageStore {
 public:
  /// Target slab size; the real slab is the largest power-of-two page count
  /// that fits (at least one page). Slabs are calloc-backed, so untouched
  /// tail pages of the current slab cost no physical memory.
  static constexpr size_t kArenaTargetBytes = 64u << 20;

  explicit PageFile(uint32_t page_size = kDefaultPageSize);

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Appends a zeroed page and returns its id.
  PageId Allocate(PageCategory category);

  /// Raw mutable access for writers (no I/O accounting; building an index is
  /// not a query).
  char* MutableData(PageId id) {
    return const_cast<char*>(PageAddress(id));
  }

  /// Raw read access. Query code must not call this directly — use
  /// BufferPool::Read so the access is charged. The returned pointer is
  /// stable for the file's lifetime (see class comment).
  const char* Data(PageId id) const override { return PageAddress(id); }

  PageCategory category(PageId id) const override { return categories_[id]; }

  uint32_t page_size() const override { return page_size_; }

  /// Number of allocated pages.
  size_t page_count() const override { return categories_.size(); }

  /// Number of allocated pages in a given category (O(1); a packed side
  /// array keeps the per-category tallies).
  size_t PageCountIn(PageCategory category) const override {
    return pages_in_category_[static_cast<size_t>(category)];
  }

  /// Total simulated on-disk size in bytes.
  uint64_t SizeBytes() const override {
    return categories_.size() * uint64_t{page_size_};
  }

  /// Pages per slab arena (test hook for the slab-boundary cases).
  uint32_t pages_per_slab() const { return uint32_t{1} << slab_shift_; }

 private:
  struct FreeDeleter {
    void operator()(char* p) const { std::free(p); }
  };
  using Slab = std::unique_ptr<char[], FreeDeleter>;

  const char* PageAddress(PageId id) const {
    assert(id < categories_.size());
    return slabs_[id >> slab_shift_].get() +
           size_t{id & slab_mask_} * page_size_;
  }

  uint32_t page_size_;
  uint32_t slab_shift_;  // log2(pages per slab)
  uint32_t slab_mask_;   // pages per slab - 1
  std::vector<Slab> slabs_;
  // One byte per page; doubles as the page counter (its size is the count).
  std::vector<PageCategory> categories_;
  std::array<size_t, kNumPageCategories> pages_in_category_{};
};

}  // namespace flat

#endif  // FLAT_STORAGE_PAGE_FILE_H_
