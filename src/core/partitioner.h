#ifndef FLAT_CORE_PARTITIONER_H_
#define FLAT_CORE_PARTITIONER_H_

#include <cstdint>
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
  /// neighbor join draws its candidate pairs from these; the index does
  /// not store it.
  Aabb partition_mbr;
  /// The unstretched tile; tiles jointly cover the universe with no gaps.
  Aabb tile;
  uint32_t first = 0;
  uint32_t count = 0;
  /// Indices of neighboring partitions, ascending; filled by
  /// ComputeNeighbors (see there for the relation).
  std::vector<uint32_t> neighbors;
};

/// Segments space into page-sized partitions per Algorithm 1: sort elements
/// on x-center into slabs, each slab on y into runs, each run on z into
/// page-capacity chunks. Tile boundaries are placed midway between adjacent
/// element centers (outermost tiles extend to the universe bounds), so the
/// tiles cover `universe` with no empty space — the first partitioning
/// property of Section V-B. Each partition MBR is then stretched to enclose
/// its page MBR — the second property.
///
/// `elements` is reordered in place; on return, partition i owns
/// elements [first, first+count).
///
/// With a `pool`, the x pass runs as a parallel merge sort and the per-slab
/// y / per-run z passes sort independent ranges in parallel. The sorting
/// passes use a strict total order (EntryCenterOrder), so the element order —
/// and therefore every downstream page — is identical for any thread count.
std::vector<PartitionInfo> StrPartition(std::vector<RTreeEntry>* elements,
                                        uint32_t page_capacity,
                                        const Aabb& universe,
                                        ThreadPool* pool = nullptr);

/// Fills `neighbors` for every partition. Partition A lists partition B
/// (A != B) iff tile_A ∩ tile_B, page_A ∩ tile_B or tile_A ∩ page_B is
/// non-empty (closed intervals, so face-adjacent tiles qualify), evaluated
/// on the float32 outward-rounded boxes a seed-leaf record stores
/// (PackedAabb). The relation is symmetric and irreflexive, and each list
/// is sorted ascending.
///
/// This is what the crawl needs and no more: the tiles meeting a query box
/// cover it, so they are connected through tile ∩ tile links, and every
/// element hit lies in one of those tiles, which links to the element's
/// page through tile ∩ page (docs/architecture.md, "Why the crawl is
/// exact"). Algorithm 1's relation — stretched partition MBRs intersect —
/// is a superset with about 2.7x the pointers on neuron data.
///
/// Candidate pairs come from a uniform-grid intersection join over the
/// partition MBRs (GridIntersectionJoin; each partition MBR must enclose
/// its tile and page MBR, as StrPartition guarantees), which replaces
/// Algorithm 1's temporary R-tree; one pass then filters them by the
/// relation above. Both run in parallel when `pool` is given, and the
/// output is independent of the thread count.
void ComputeNeighbors(std::vector<PartitionInfo>* partitions,
                      ThreadPool* pool = nullptr);

/// Total number of neighbor pointers across all partitions.
uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions);

}  // namespace flat

#endif  // FLAT_CORE_PARTITIONER_H_
