// PageCache decorator for flatbench's decomposed (traced) pass: every Read
// through the wrapped BufferPool is counted and a fixed sample of them is
// timed, so the storage layer's work per query is measured where it happens. The caller prepares
// the pool exactly as the store does for a sub-query (a fresh pool, or a
// recycled one after Clear + set_stats), so misses land in the same IoStats
// categories and the decomposition reproduces the store's IoStats.
#ifndef FLATBENCH_COUNTING_CACHE_H_
#define FLATBENCH_COUNTING_CACHE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "geometry/box_kernels.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_cache.h"
#include "tracer.h"

namespace flatbench {

/// Every kReadTimingStride-th Read is timed. Two clock reads cost about as
/// much as a cached Read, so timing every call would inflate the seed,
/// crawl and count spans around them by the cost of the measurement.
inline constexpr uint64_t kReadTimingStride = 8;

/// Storage-layer counters accumulated over many CountingCache instances.
struct ReadCounters {
  uint64_t calls = 0;
  uint64_t misses = 0;
  uint64_t timed_calls = 0;
  int64_t timed_ns = 0;  // over the timed calls
  /// Element boxes on the object pages returned by Read: the boxes the
  /// seed probes and the crawl/count scans gate.
  uint64_t object_boxes = 0;

  /// Distinct object pages seen, copied (up to `sample_limit`) into SoA
  /// form for the geometry kernel loops, which run over real object pages.
  /// Copies, because a compaction may free the pages of an older base.
  size_t sample_limit = 0;
  std::vector<flat::SoaBoxes> sampled_pages;
  std::unordered_set<const char*> sampled_set;
};

class CountingCache final : public flat::PageCache {
 public:
  CountingCache(flat::BufferPool* pool, ReadCounters* counters)
      : pool_(pool), counters_(counters) {}

  const char* Read(flat::PageId id) override {
    const uint64_t misses = pool_->misses();
    const char* data;
    if (counters_->calls++ % kReadTimingStride == 0) {
      const int64_t start = NowNs();
      data = pool_->Read(id);
      counters_->timed_ns += NowNs() - start;
      ++counters_->timed_calls;
    } else {
      data = pool_->Read(id);
    }
    counters_->misses += pool_->misses() - misses;
    if (pool_->store().category(id) == flat::PageCategory::kObject) {
      const uint16_t boxes = flat::NodeView(data).count();
      counters_->object_boxes += boxes;
      if (counters_->sampled_pages.size() < counters_->sample_limit &&
          counters_->sampled_set.insert(data).second) {
        counters_->sampled_pages.emplace_back().Assign(
            data + flat::kNodeHeaderSize, sizeof(flat::RTreeEntry), boxes);
      }
    }
    return data;
  }

  void Prefetch(flat::PageId id) override { pool_->Prefetch(id); }
  const char* Peek(flat::PageId id) override { return pool_->Peek(id); }
  bool prefetch_enabled() const override { return pool_->prefetch_enabled(); }

 private:
  flat::BufferPool* pool_;
  ReadCounters* counters_;
};

}  // namespace flatbench

#endif  // FLATBENCH_COUNTING_CACHE_H_
