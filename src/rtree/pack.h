#ifndef FLAT_RTREE_PACK_H_
#define FLAT_RTREE_PACK_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "rtree/aggregates.h"
#include "rtree/entry.h"
#include "rtree/rtree.h"
#include "storage/page_file.h"

namespace flat {

class ThreadPool;

/// Order on entries for the STR passes: center coordinate on `axis`,
/// tie-broken lexicographically by the box corners and finally the id. Each
/// key compares numbers by value and puts NaN after every number, so empty
/// boxes (`Aabb()` has a NaN center) and NaN coordinates keep it a strict
/// weak order, as std::sort and std::nth_element require. Entries compare
/// equal only with equal ids and equal coordinates, so for distinct ids the
/// sorted sequence, and every chunk SelectChunks cuts from it, is unique:
/// the property behind "the build is byte-identical for every thread count
/// and input order".
struct EntryCenterOrder {
  int axis;

  bool operator()(const RTreeEntry& a, const RTreeEntry& b) const {
    if (const int c = Compare(CenterOn(a.box), CenterOn(b.box))) return c < 0;
    for (int ax = 0; ax < 3; ++ax) {
      if (const int c = Compare(a.box.lo()[ax], b.box.lo()[ax])) return c < 0;
      if (const int c = Compare(a.box.hi()[ax], b.box.hi()[ax])) return c < 0;
    }
    return a.id < b.id;
  }

  /// box.Center()[axis], without computing the other two axes.
  double CenterOn(const Aabb& box) const {
    return (box.lo()[axis] + box.hi()[axis]) * 0.5;
  }

  /// -1, 0 or 1 as `a` orders before, with or after `b`: numbers by value,
  /// NaN after every number and equal to NaN.
  static int Compare(double a, double b) {
    if (a < b) return -1;
    if (b < a) return 1;
    return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
  }
};

/// A range [begin, end) of entries to split into consecutive chunks of
/// `chunk` entries; the last chunk may be shorter.
struct ChunkedRange {
  size_t begin;
  size_t end;
  size_t chunk;
};

/// Moves every entry of every range into the chunk that std::sort with
/// EntryCenterOrder{axis} would put it in, without sorting: afterwards each
/// chunk holds exactly a sort's entries, in unspecified order, and each
/// chunk boundary holds the entry a sort puts there, the smallest of its
/// chunk. One std::nth_element per boundary, middle boundary first, then
/// each half: O(m log k) comparisons for m entries in k chunks instead of a
/// sort's O(m log m). Ranges must be disjoint. Each round of halves runs
/// over `pool`; a half sees the same steps at any thread count, so the
/// arrangement is the same too. Reorders `entries` in place and touches no
/// entry outside the ranges.
void SelectChunks(std::span<RTreeEntry> entries,
                  const std::vector<ChunkedRange>& ranges, int axis,
                  ThreadPool* pool = nullptr);

/// How a bulkloader arranges the entries of each tree level before packing
/// them into consecutive full pages.
enum class LevelOrder {
  /// Keep the order produced for the level below (Hilbert/Morton packing —
  /// consecutive runs of children become one parent).
  kSequential,
  /// Re-tile the level with Sort-Tile-Recursive on entry centers.
  kStr,
};

/// Reorders `entries` in 3-D Sort-Tile-Recursive order (Leutenegger et al.,
/// ICDE '97 — reference [16]): by x-center into vertical slabs, each slab by
/// y-center into runs, each run sorted by z-center. `node_capacity`
/// determines the tile size so that consecutive runs of `node_capacity`
/// entries form tight tiles. Slabs and runs are cut by SelectChunks and only
/// the runs are sorted, which yields exactly the order of three full sorts.
/// With a `pool` the selection rounds and the run sorts fan out over it; the
/// output is the same for any thread count and input order.
void StrOrder(std::vector<RTreeEntry>* entries, uint32_t node_capacity,
              ThreadPool* pool = nullptr);

/// Exact ceil(value^(1/3)) / ceil(sqrt(value)) on integers (std::cbrt(27.0)
/// can land just above 3.0, which would silently mis-tile STR).
size_t CeilCbrt(size_t value);
size_t CeilSqrt(size_t value);

/// Packs `ordered` into consecutive full nodes of `level` appended to `file`,
/// and returns the parent-level entries (node MBR + child PageId). Level-0
/// pages are tagged `leaf_category`, higher levels `internal_category` (the
/// FLAT seed tree reuses this machinery with seed categories).
///
/// With an `aggregates` builder, every internal page packed here also
/// records one sidecar entry per child slot (the child's subtree totals,
/// looked up from the builder's page totals) and publishes the packed
/// page's own rolled-up total for the level above (rtree/aggregates.h).
/// A child with no declared total leaves its slot — and the parent's
/// total — unrecorded, which query-time lookups treat as "descend
/// exactly". Runs on the serial packing path, so the sidecar is as
/// deterministic as the page bytes.
std::vector<RTreeEntry> PackLevel(
    PageFile* file, const std::vector<RTreeEntry>& ordered, uint8_t level,
    PageCategory leaf_category = PageCategory::kRTreeLeaf,
    PageCategory internal_category = PageCategory::kRTreeInternal,
    AggregateBuilder* aggregates = nullptr);

/// Repeatedly packs levels until a single root remains; `level_entries` are
/// the parents of the already-written level `level - 1`. Returns the finished
/// tree. `pool` parallelizes the per-level STR re-ordering (page writes stay
/// serial so PageIds are allocated in a deterministic order).
/// `aggregates` (optional) as in PackLevel, threaded through every level.
RTree BuildUpperLevels(
    PageFile* file, std::vector<RTreeEntry> level_entries, uint8_t level,
    LevelOrder order,
    PageCategory internal_category = PageCategory::kRTreeInternal,
    ThreadPool* pool = nullptr, AggregateBuilder* aggregates = nullptr);

/// Bulkloads from pre-ordered leaf entries: packs leaves in the given order,
/// then builds upper levels per `order`. The workhorse shared by every
/// bulkloading strategy except the PR-Tree (which packs its own levels).
RTree PackOrderedLeaves(PageFile* file, const std::vector<RTreeEntry>& ordered,
                        LevelOrder order,
                        PageCategory leaf_category = PageCategory::kRTreeLeaf);

}  // namespace flat

#endif  // FLAT_RTREE_PACK_H_
