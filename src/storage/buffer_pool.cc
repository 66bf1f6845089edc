#include "storage/buffer_pool.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "storage/fault_injection.h"

namespace flat {
namespace {

[[noreturn]] void ThrowPageOutOfRange(PageId id, size_t page_count) {
  throw std::runtime_error("BufferPool: page " + std::to_string(id) +
                           " is outside the store's " +
                           std::to_string(page_count) + " pages");
}

}  // namespace

BufferPool::BufferPool(const PageStore* store, IoStats* stats)
    : store_(store), stats_(stats) {
  assert(store_ != nullptr);
  assert(stats_ != nullptr);
}

const char* BufferPool::Read(PageId id) {
  if (table_.Touch(id)) {
    ++hits_;
    return store_->Data(id);
  }
  // Neither category() nor Data() checks bounds, and the page table would
  // grow to any id: a corrupt page pointer in a loaded file stops here.
  const size_t page_count = store_->page_count();
  if (id >= page_count) ThrowPageOutOfRange(id, page_count);
  ++misses_;
  stats_->RecordRead(store_->category(id));
  table_.Insert(id);
  // A miss is where the backend may actually perform I/O: attribute any
  // transient-read retries it burned to this query's stats.
  const uint64_t retries_before = ThreadReadRetries();
  const char* data = store_->Data(id);
  const uint64_t retries = ThreadReadRetries() - retries_before;
  if (retries != 0) stats_->RecordIoRetries(retries);
  return data;
}

void BufferPool::set_stats(IoStats* stats) {
  assert(stats != nullptr);
  stats_ = stats;
}

}  // namespace flat
