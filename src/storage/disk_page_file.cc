#include "storage/disk_page_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>

#include "storage/fault_injection.h"
#include "storage/persistence.h"

namespace flat {
namespace {

// Magic + u32 page_size + u32 count (storage/persistence.h).
constexpr uint64_t kHeaderBytes = kPageFileMagicSize + 8;

// Longest sleep between two transient-error retries of one page read.
constexpr uint64_t kRetryBackoffCapMicros = 10000;

[[noreturn]] void Fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("DiskPageFile: " + what + ": " + path);
}

/// pread that survives partial reads and EINTR; throws on error/EOF.
void ReadFully(int fd, const std::string& path, void* dst, size_t len,
               uint64_t offset) {
  char* out = static_cast<char*>(dst);
  while (len > 0) {
    const ssize_t n = ::pread(fd, out, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail(path, "read failed (" + std::string(std::strerror(errno)) + ")");
    }
    if (n == 0) Fail(path, "unexpected end of file");
    out += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

uint32_t LoadU32(const char* bytes) {
  uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

// Sentinel marking a pread-mode page whose read is in flight. A resident
// slot moves null -> kBusyPage -> buffer (or back to null on a failed
// read); exactly one thread ever reads a given page from the fd, so
// concurrent query threads never duplicate the same I/O.
char* const kBusyPage = reinterpret_cast<char*>(1);

}  // namespace

std::unique_ptr<DiskPageFile> DiskPageFile::Open(const std::string& path,
                                                 const Options& options) {
  // The destructor handles partially initialized state, so any throw below
  // releases the fd/mapping through the unique_ptr.
  std::unique_ptr<DiskPageFile> file(new DiskPageFile());
  file->path_ = path;

  file->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file->fd_ < 0) {
    Fail(path, "cannot open (" + std::string(std::strerror(errno)) + ")");
  }

  struct stat st;
  if (::fstat(file->fd_, &st) != 0) {
    Fail(path, "fstat failed (" + std::string(std::strerror(errno)) + ")");
  }
  file->file_size_ = static_cast<uint64_t>(st.st_size);
  if (file->file_size_ < kHeaderBytes) Fail(path, "truncated header");

  char header[kHeaderBytes];
  ReadFully(file->fd_, path, header, sizeof(header), 0);
  if (!IsReadablePageFileMagic(header)) {
    Fail(path, "bad magic (not a FLAT page file or unsupported version)");
  }
  file->page_size_ = LoadU32(header + kPageFileMagicSize);
  const uint32_t page_count = LoadU32(header + kPageFileMagicSize + 4);
  if (file->page_size_ < 64 || file->page_size_ > (64u << 20)) {
    Fail(path, "implausible page size");
  }

  // The page_count header field is untrusted until it is consistent with
  // the file's actual size — this is what stops a hostile 16-byte header
  // from provoking huge allocations or out-of-range reads.
  const uint64_t expected_size =
      kHeaderBytes +
      uint64_t{page_count} * (uint64_t{1} + file->page_size_);
  if (file->file_size_ < expected_size) {
    Fail(path, "truncated (header page count exceeds file size)");
  }
  if (file->file_size_ > expected_size) {
    Fail(path, "size mismatch (trailing bytes after last page)");
  }
  file->data_offset_ = kHeaderBytes + page_count;

  // Private, validated copy of the category table: category() indexes
  // per-category arrays, so serving it from a file-backed mapping a hostile
  // writer could flip under us would be an out-of-bounds primitive.
  file->categories_.resize(page_count);
  if (page_count > 0) {
    ReadFully(file->fd_, path, file->categories_.data(), page_count,
              kHeaderBytes);
  }
  for (uint8_t c : file->categories_) {
    if (c >= kNumPageCategories) Fail(path, "invalid page category");
    ++file->pages_in_category_[c];
  }

  file->fault_schedule_ = options.fault_schedule;
  file->max_read_retries_ = options.max_read_retries;
  file->retry_backoff_micros_ = options.retry_backoff_micros;

  // A fault schedule forces pread mode: mmap'd reads are page faults, not
  // preads, so scheduled faults would silently never fire.
  if (options.use_mmap && options.fault_schedule == nullptr) {
    void* base = ::mmap(nullptr, file->file_size_, PROT_READ, MAP_PRIVATE,
                        file->fd_, 0);
    if (base != MAP_FAILED) {
      file->map_base_ = static_cast<const char*>(base);
      file->map_length_ = file->file_size_;
    }
    // mmap failure is not fatal: fall through to the pread mode.
  }
  if (file->map_base_ == nullptr) {
    file->resident_ = std::make_unique<std::atomic<char*>[]>(page_count);
  }
  return file;
}

DiskPageFile::~DiskPageFile() {
  if (resident_ != nullptr) {
    for (size_t i = 0; i < categories_.size(); ++i) {
      char* buffer = resident_[i].load(std::memory_order_relaxed);
      if (buffer != kBusyPage) std::free(buffer);
    }
  }
  if (map_base_ != nullptr) {
    ::munmap(const_cast<char*>(map_base_), map_length_);
  }
  if (fd_ >= 0) ::close(fd_);
}

const char* DiskPageFile::Data(PageId id) const {
  if (map_base_ != nullptr) return map_base_ + PageOffset(id);
  return EnsureResident(id);
}

const char* DiskPageFile::EnsureResident(PageId id) const {
  std::atomic<char*>& slot = resident_[id];
  for (;;) {
    char* resident = slot.load(std::memory_order_acquire);
    if (resident == kBusyPage) {
      // Another query thread is mid-read; waiting for its result is strictly
      // cheaper than issuing a duplicate pread.
      std::this_thread::yield();
      continue;
    }
    if (resident != nullptr) return resident;

    char* expected = nullptr;
    if (!slot.compare_exchange_weak(expected, kBusyPage,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      continue;  // lost the claim; re-examine the slot
    }
    char* buffer = static_cast<char*>(std::malloc(page_size_));
    if (buffer == nullptr) {
      slot.store(nullptr, std::memory_order_release);
      throw std::bad_alloc();
    }
    try {
      ReadPage(id, buffer);
    } catch (...) {
      // Release the busy claim so later reads can retry the page instead of
      // spinning on the sentinel forever.
      std::free(buffer);
      slot.store(nullptr, std::memory_order_release);
      throw;
    }
    slot.store(buffer, std::memory_order_release);
    return buffer;
  }
}

void DiskPageFile::ReadPage(PageId id, char* dst) const {
  char* out = dst;
  size_t remaining = page_size_;
  uint64_t offset = PageOffset(id);
  uint32_t error_retries = 0;

  // Charges one counted retry (member total + the thread-local counter the
  // BufferPool samples for per-query IoStats attribution).
  const auto count_retry = [this] {
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    AddThreadReadRetries(1);
  };
  const auto backoff = [this](uint32_t retries_done) {
    if (retry_backoff_micros_ == 0) return;
    uint64_t micros = uint64_t{retry_backoff_micros_} << retries_done;
    if (micros > kRetryBackoffCapMicros) micros = kRetryBackoffCapMicros;
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  };

  while (remaining > 0) {
    size_t request = remaining;

    // One loop iteration is one read attempt; the schedule (if any) is
    // consulted first so injected faults are deterministic per attempt.
    if (fault_schedule_ != nullptr) {
      const FaultSpec fault = fault_schedule_->Next(id);
      switch (fault.kind) {
        case FaultKind::kNone:
          break;
        case FaultKind::kEintr:
          count_retry();
          continue;  // interrupted before transferring anything
        case FaultKind::kShortRead:
          // Truncate this attempt's transfer; the loop continues from the
          // partial progress, as with a real short pread.
          request = fault.short_bytes < 1 ? 1 : fault.short_bytes;
          if (request > remaining) request = remaining;
          break;
        case FaultKind::kLatency:
          if (fault.latency_micros > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(fault.latency_micros));
          }
          break;
        case FaultKind::kError:
          if (error_retries >= max_read_retries_) {
            read_errors_.fetch_add(1, std::memory_order_relaxed);
            Fail(path_, "read of page " + std::to_string(id) +
                            " failed after " + std::to_string(error_retries) +
                            " retries (injected " +
                            std::string(std::strerror(fault.error_number)) +
                            ")");
          }
          count_retry();
          backoff(error_retries);
          ++error_retries;
          continue;
      }
    }

    const ssize_t n = ::pread(fd_, out, request, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) {
        count_retry();
        continue;
      }
      if (error_retries >= max_read_retries_) {
        read_errors_.fetch_add(1, std::memory_order_relaxed);
        Fail(path_, "read of page " + std::to_string(id) + " failed after " +
                        std::to_string(error_retries) + " retries (" +
                        std::string(std::strerror(errno)) + ")");
      }
      count_retry();
      backoff(error_retries);
      ++error_retries;
      continue;
    }
    if (n == 0) {
      // EOF inside a validated page range: the file shrank under us.
      // Retrying cannot help.
      read_errors_.fetch_add(1, std::memory_order_relaxed);
      Fail(path_, "unexpected end of file reading page " + std::to_string(id));
    }
    out += n;
    remaining -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

void DiskPageFile::DropOsCache() {
  if (map_base_ != nullptr) {
    // Release this process's mapped copies, then ask the kernel to drop the
    // file's page-cache pages. Subsequent reads re-fault from disk.
    ::madvise(const_cast<char*>(map_base_), map_length_, MADV_DONTNEED);
  }
  if (resident_ != nullptr) {
    // pread mode: forget the resident copies. This (documentedly) breaks
    // pointer stability for pages returned before the drop — DropOsCache is
    // a benchmark-harness operation, not a query-time one. A slot with a
    // read in flight (kBusyPage) is left alone: it will finish
    // materializing, costing only a slightly-less-cold next pass.
    for (size_t i = 0; i < categories_.size(); ++i) {
      char* value = resident_[i].load(std::memory_order_acquire);
      if (value == nullptr || value == kBusyPage) continue;
      if (resident_[i].compare_exchange_strong(value, nullptr,
                                               std::memory_order_acq_rel)) {
        std::free(value);
      }
    }
  }
#if defined(POSIX_FADV_DONTNEED)
  ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
#endif
}

}  // namespace flat
