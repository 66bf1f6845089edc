#ifndef FLAT_STORAGE_DISK_PAGE_FILE_H_
#define FLAT_STORAGE_DISK_PAGE_FILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"

namespace flat {

class FaultSchedule;

/// A real persistent PageStore: serves `Data(id)` straight from a page file
/// written by SavePageFile (any version IsReadablePageFileMagic accepts:
/// `FLATPGF1`, `FLATPGF2` or `FLATPGF3`), opened read-only for query
/// execution.
///
/// This is the backend that makes the paper's central claim measurable:
/// crawl queries are 97.8–98.8 % I/O-bound (Section VII-E.2), which an
/// in-memory PageFile can only *model* (DiskModel), never *exhibit*. With a
/// DiskPageFile behind the same PageCache API, cold-cache benchmarks read
/// actual pages from an actual file.
///
/// Two access modes, chosen at Open:
///
///  - **mmap (default).** The whole file is mapped PROT_READ/MAP_PRIVATE;
///    `Data(id)` is pure address arithmetic into the mapping, so the
///    on-disk layout *is* the in-memory layout and the pointer-stability
///    contract of PageStore holds for free (the mapping never moves).
///  - **pread fallback** (mmap unavailable or `Options::use_mmap ==
///    false`). Pages are read on demand into individually allocated
///    buffers that live for the file's lifetime (pointer stability again);
///    materialization is lock-free: the first reader claims the page's
///    slot with a busy marker, reads it, and publishes the buffer; a
///    concurrent reader of the same page waits for that publish instead of
///    issuing a second read.
///
/// Header and size are validated against the actual file size before any
/// page is touched (no trust in the on-disk page_count), and every category
/// byte is range-checked; corrupt files are rejected with
/// std::runtime_error at Open.
///
/// Thread-safety: all const members are safe to call concurrently once Open
/// returns.
class DiskPageFile final : public PageStore {
 public:
  struct Options {
    /// Map the file and serve pages from the mapping. When false — or when
    /// mmap fails at runtime — the pread fallback is used instead.
    bool use_mmap = true;

    /// Transient pread failures (anything but EINTR, which always retries
    /// immediately) are retried up to this many times with exponential
    /// backoff before the read fails permanently (std::runtime_error, which
    /// the query dispatch layer converts to a kIoError result).
    uint32_t max_read_retries = 3;
    /// First backoff sleep before a transient-error retry; doubled per
    /// retry up to a 10 ms cap. 0 retries immediately.
    uint32_t retry_backoff_micros = 100;

    /// Deterministic fault plan for page reads (tests/benches; see
    /// storage/fault_injection.h). Setting this forces pread mode — mmap'd
    /// reads never reach the schedule, so a scheduled fault could silently
    /// never fire. Must outlive the file. Header and category-table reads
    /// are not subject to injection (they happen once, at Open).
    const FaultSchedule* fault_schedule = nullptr;
  };

  /// Opens `path` (a SavePageFile stream on disk) read-only. Throws
  /// std::runtime_error on I/O errors, bad magic, implausible page size,
  /// a page_count inconsistent with the file's actual size, or invalid
  /// category bytes.
  static std::unique_ptr<DiskPageFile> Open(const std::string& path,
                                            const Options& options);
  static std::unique_ptr<DiskPageFile> Open(const std::string& path) {
    return Open(path, Options());
  }

  ~DiskPageFile() override;

  DiskPageFile(const DiskPageFile&) = delete;
  DiskPageFile& operator=(const DiskPageFile&) = delete;

  const char* Data(PageId id) const override;

  PageCategory category(PageId id) const override {
    return static_cast<PageCategory>(categories_[id]);
  }

  uint32_t page_size() const override { return page_size_; }
  size_t page_count() const override { return categories_.size(); }

  size_t PageCountIn(PageCategory category) const override {
    return pages_in_category_[static_cast<size_t>(category)];
  }

  /// Page payload bytes, excluding the 16-byte header and category table —
  /// the same figure PageFile::SizeBytes reports, so size accounting is
  /// backend-independent.
  uint64_t SizeBytes() const override {
    return categories_.size() * uint64_t{page_size_};
  }

  /// Drops this file's pages from the OS page cache as far as the kernel
  /// allows (`posix_fadvise(POSIX_FADV_DONTNEED)` over the whole file) and
  /// discards pread-mode resident copies. The cold-cache benchmark
  /// methodology between runs; see docs/benchmarks.md. Must not race with
  /// concurrent Data() calls in pread mode.
  void DropOsCache();

  /// True when pages are served from an mmap'd region (false: pread mode).
  bool mmap_backed() const { return map_base_ != nullptr; }

  /// Transient page-read failures recovered by retry (EINTR + retried
  /// errors) and permanent read failures thrown, across all threads.
  uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }
  uint64_t read_errors() const {
    return read_errors_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

 private:
  DiskPageFile() = default;

  /// Byte offset of page `id` within the file.
  uint64_t PageOffset(PageId id) const {
    return data_offset_ + uint64_t{id} * page_size_;
  }

  /// pread mode: returns the resident copy of `id`, reading it from the fd
  /// on first access (lock-free publish; see class comment).
  const char* EnsureResident(PageId id) const;

  /// Reads page `id` into `dst`, applying the fault schedule (if any) and
  /// the EINTR/short-read/transient-retry recovery policy. Throws
  /// std::runtime_error once the retry budget is exhausted.
  void ReadPage(PageId id, char* dst) const;

  std::string path_;
  int fd_ = -1;
  uint32_t page_size_ = 0;
  uint64_t data_offset_ = 0;  // 16 + page_count (header + category table)
  uint64_t file_size_ = 0;
  std::vector<uint8_t> categories_;  // validated private copy
  std::array<size_t, kNumPageCategories> pages_in_category_{};

  // mmap mode.
  const char* map_base_ = nullptr;  // nullptr in pread mode
  size_t map_length_ = 0;

  // pread mode: one owned buffer per materialized page, kept for the
  // file's lifetime (pointer stability).
  mutable std::unique_ptr<std::atomic<char*>[]> resident_;

  // Fail-soft read policy (see Options).
  const FaultSchedule* fault_schedule_ = nullptr;
  uint32_t max_read_retries_ = 3;
  uint32_t retry_backoff_micros_ = 100;
  mutable std::atomic<uint64_t> read_retries_{0};
  mutable std::atomic<uint64_t> read_errors_{0};
};

}  // namespace flat

#endif  // FLAT_STORAGE_DISK_PAGE_FILE_H_
