#ifndef FLAT_CORE_PARTITIONER_H_
#define FLAT_CORE_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/aabb.h"
#include "rtree/entry.h"

namespace flat {

class ThreadPool;

/// One space partition produced by Algorithm 1. Refers to a contiguous range
/// [first, first + count) of the (reordered) element array; that range is
/// exactly what gets packed onto one object page.
struct PartitionInfo {
  /// MBR of the elements on the page ("page MBR").
  Aabb page_mbr;
  /// The space tile stretched to enclose page_mbr ("partition MBR"). The
  /// neighbor relation requires these to intersect; the index does not
  /// store it.
  Aabb partition_mbr;
  /// The unstretched tile; tiles jointly cover the universe with no gaps.
  Aabb tile;
  uint32_t first = 0;
  uint32_t count = 0;
  /// The x-slab and the y-run (numbered across all slabs) the tile was cut
  /// from: partitions come out slab by slab, run by run, and the tile is
  /// the slab's x-interval × the run's y-interval × the page's z-interval.
  /// The tile directory (core/tile_directory.h) is built from them.
  uint32_t slab = 0;
  uint32_t run = 0;
  /// Indices of neighboring partitions, ascending; filled by
  /// ComputeNeighbors (see there for the relation).
  std::vector<uint32_t> neighbors;
};

/// Segments space into page-sized partitions per Algorithm 1: elements by
/// x-center into slabs, each slab by y-center into runs, each run by
/// z-center into page-capacity chunks. Tile boundaries are placed midway
/// between adjacent element centers (outermost tiles extend to the universe
/// bounds), so the tiles cover `universe` with no empty space — the first
/// partitioning property of Section V-B. Each partition MBR is then
/// stretched to enclose its page MBR — the second property. Boundaries come
/// from finite centers only; a chunk whose centers on the pass axis are all
/// NaN (empty boxes, NaN coordinates) gets an empty tile, and the last chunk
/// with a finite center extends to the universe bound instead (when a slab
/// or run has no finite center at all, its first chunk spans the axis).
///
/// `elements` is reordered in place and nothing else is touched, so a
/// caller can partition a slice of a larger array; on return, partition i
/// owns elements [first, first+count) of the slice, in unspecified order.
/// The passes cut slabs, runs and pages by selection (SelectChunks) rather
/// than sorting, so membership, tiles and MBRs are exactly what full sorts
/// with EntryCenterOrder would give, and are the same for any input order
/// and any thread count. With a `pool`, the selection rounds and the
/// per-run work fan out over it.
std::vector<PartitionInfo> StrPartition(std::span<RTreeEntry> elements,
                                        uint32_t page_capacity,
                                        const Aabb& universe,
                                        ThreadPool* pool = nullptr);

/// Fills `neighbors` for every partition. Partition A lists partition B
/// (A != B) iff both
///  - tile_A ∩ tile_B, page_A ∩ tile_B or tile_A ∩ page_B is non-empty on
///    the float32 outward-rounded boxes a seed-leaf record stores
///    (PackedAabb), and
///  - the float64 stretched partition MBRs intersect (Algorithm 1's
///    relation; outward rounding makes more f32 boxes touch, and this
///    clause drops some of those extra links).
/// Intervals are closed, so face-adjacent tiles qualify. The relation is
/// symmetric and irreflexive, and each list is sorted ascending.
///
/// This is what the crawl needs and no more: the tiles meeting a query box
/// cover it, so they are connected through tile ∩ tile links, and every
/// element hit lies in one of those tiles, which links to the element's
/// page through tile ∩ page (docs/architecture.md, "Why the crawl is
/// exact"). Every link that argument uses meets in float64, so both
/// clauses keep it. Algorithm 1's relation alone keeps about 2.7x the
/// pointers on neuron data.
///
/// A uniform grid over the f32 tiles replaces Algorithm 1's temporary
/// R-tree: each partition probes it with its tile and its page MBR, which
/// finds the first two clauses, and the third is their mirror image. The
/// probes run in parallel when `pool` is given; the output is independent
/// of the thread count.
void ComputeNeighbors(std::vector<PartitionInfo>* partitions,
                      ThreadPool* pool = nullptr);

/// Total number of neighbor pointers across all partitions.
uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions);

}  // namespace flat

#endif  // FLAT_CORE_PARTITIONER_H_
