#ifndef FLAT_DELTA_OVERLAY_VIEW_H_
#define FLAT_DELTA_OVERLAY_VIEW_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "delta/delta_log.h"
#include "geometry/aabb.h"
#include "rtree/entry.h"

namespace flat {

/// Immutable, snapshot-scoped materialization of a DeltaLog window — the
/// read side of the delta overlay, and the "brute-force-crawlable side
/// structure" queries merge with the bulkloaded shards.
///
/// Build folds ops `[first, limit)` down to their last-op-wins outcome:
///  - `touched()` holds every id whose base visibility the window overrides
///    (deleted, or re-inserted with a possibly different box). Query merges
///    mask these ids out of base results (core/overlay_merge.h).
///  - The live inserts are routed into per-shard buckets: an entry whose box
///    is contained in shard s's element bounds lands in bucket s, everything
///    else (including all entries of a store with no shards) in the spill
///    bucket. A query therefore only scans the buckets of the shards it is
///    routed to, plus the spill bucket — if a query box intersects an entry
///    contained in bounds[s], it necessarily intersects bounds[s], so
///    skipping unrouted buckets can never lose a match.
///
/// Each bucket is a contiguous RTreeEntry array (the same 56-byte stride as
/// an object page), so the query-time scan gates whole buckets with the
/// batched gate kernel (IntersectsBatch, geometry/box_kernels.h) instead of
/// per-entry calls.
///
/// An OverlayView is immutable after Build and safe to share across any
/// number of query threads; snapshots hold it by shared_ptr.
class OverlayView {
 public:
  /// Folds ops `[first, min(limit, log.size()))` of `log`, routing live
  /// entries by `shard_bounds` (one Aabb per shard of the base the snapshot
  /// pins; may be empty). Returns nullptr when the window is empty — the
  /// "no overlay" fast path that keeps bulkload-only queries unchanged.
  static std::shared_ptr<const OverlayView> Build(
      const DeltaLog& log, uint64_t first, uint64_t limit,
      const std::vector<Aabb>& shard_bounds);

  /// True when the window held no ops: nothing masked, nothing live.
  bool empty() const { return touched_.empty(); }

  /// Whether `id`'s base visibility is overridden at this snapshot (the id
  /// was deleted or re-inserted within the window).
  bool IsTouched(uint64_t id) const {
    return touched_.find(id) != touched_.end();
  }

  /// shard_bounds.size() + 1 buckets; the last is the spill bucket.
  size_t bucket_count() const { return buckets_.size(); }
  size_t spill_bucket() const { return buckets_.size() - 1; }

  /// Live overlay entries routed to `bucket`, contiguous for batched gates.
  const std::vector<RTreeEntry>& bucket(size_t bucket_index) const {
    return buckets_[bucket_index];
  }

  /// Total live (visible) overlay entries across all buckets.
  uint64_t live_count() const { return live_count_; }
  /// Ids masked or overridden (size of touched()).
  uint64_t touched_count() const { return touched_.size(); }

  /// The window this view materializes.
  uint64_t first() const { return first_; }
  uint64_t limit() const { return limit_; }

 private:
  OverlayView() = default;

  std::vector<std::vector<RTreeEntry>> buckets_;
  std::unordered_set<uint64_t> touched_;
  uint64_t live_count_ = 0;
  uint64_t first_ = 0;
  uint64_t limit_ = 0;
};

}  // namespace flat

#endif  // FLAT_DELTA_OVERLAY_VIEW_H_
