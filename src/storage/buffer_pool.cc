#include "storage/buffer_pool.h"

#include <cassert>

#include "storage/fault_injection.h"

namespace flat {

BufferPool::BufferPool(const PageStore* store, IoStats* stats,
                       size_t capacity_pages)
    : store_(store), stats_(stats), table_(capacity_pages) {
  assert(store_ != nullptr);
  assert(stats_ != nullptr);
}

const char* BufferPool::Read(PageId id) {
  if (table_.Touch(id)) {
    ++hits_;
    return store_->Data(id);
  }
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
