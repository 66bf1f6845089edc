#include "core/overlay_merge.h"

#include <algorithm>

#include "core/crawl_scratch.h"
#include "geometry/box_kernels.h"

namespace flat {
namespace {

// Gate every entry of `bucket` against `query` with the batched kernel and
// hand the hits to `emit(const RTreeEntry&)`. Returns the probe count (=
// bucket size: every live entry is gate-tested exactly once).
template <typename Emit>
uint64_t GateBucket(const std::vector<RTreeEntry>& bucket, const Aabb& query,
                    CrawlScratch* scratch, const Emit& emit) {
  if (bucket.empty()) return 0;
  std::vector<uint8_t> local_hits;
  uint8_t* hits;
  if (scratch != nullptr) {
    scratch->CheckControl();  // cancellation point, once per bucket scan
    hits = scratch->Hits(bucket.size());
  } else {
    local_hits.resize(bucket.size());
    hits = local_hits.data();
  }
  IntersectsBatch(reinterpret_cast<const char*>(bucket.data()),
                  sizeof(RTreeEntry), bucket.size(), query, hits);
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (hits[i]) emit(bucket[i]);
  }
  return bucket.size();
}

}  // namespace

void FilterOverlayMasked(const OverlayView& view, std::vector<uint64_t>* ids) {
  if (view.touched_count() == 0 || ids->empty()) return;
  ids->erase(std::remove_if(ids->begin(), ids->end(),
                            [&view](uint64_t id) { return view.IsTouched(id); }),
             ids->end());
}

uint64_t AppendOverlayRangeMatches(const OverlayView& view, size_t bucket,
                                   const Aabb& query,
                                   std::vector<uint64_t>* out,
                                   CrawlScratch* scratch) {
  return GateBucket(view.bucket(bucket), query, scratch,
                    [out](const RTreeEntry& e) { out->push_back(e.id); });
}

uint64_t CountOverlayRangeMatches(const OverlayView& view, size_t bucket,
                                  const Aabb& query, uint64_t* count,
                                  CrawlScratch* scratch) {
  return GateBucket(view.bucket(bucket), query, scratch,
                    [count](const RTreeEntry&) { ++*count; });
}

uint64_t AppendOverlaySphereMatches(const OverlayView& view, size_t bucket,
                                    const Vec3& center, double radius,
                                    std::vector<uint64_t>* out,
                                    CrawlScratch* scratch) {
  if (scratch != nullptr) scratch->CheckControl();
  const std::vector<RTreeEntry>& entries = view.bucket(bucket);
  for (const RTreeEntry& e : entries) {
    if (e.box.IntersectsSphere(center, radius)) out->push_back(e.id);
  }
  return entries.size();
}

}  // namespace flat
