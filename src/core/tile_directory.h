#ifndef FLAT_CORE_TILE_DIRECTORY_H_
#define FLAT_CORE_TILE_DIRECTORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/metadata.h"
#include "core/partitioner.h"
#include "geometry/aabb.h"
#include "storage/page_cache.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace flat {

/// The tile directory: point location over FLAT's STR tiles, the seed phase
/// of every index (docs/architecture.md, "Seed by point location").
///
/// StrPartition cuts space into x-slabs, each slab into y-runs and each run
/// into z-pages, with no gaps. So the record whose tile holds a point is
/// found with one boundary search per axis, as in a grid file (Nievergelt,
/// Hinterberger and Sevcik, TODS 1984): the last slab whose lower x bound
/// is at most the point's x, then the last run of that slab by y, then the
/// last page of that run by z. Every bound is the lower corner of the
/// stored, outward-rounded f32 tile (PackedAabb), so the record found holds
/// the point in the very box the crawl gates on. Records with an empty tile
/// (all-NaN chunks, see StrPartition) are left out.
///
/// Layout (docs/file_format.md §3.1): consecutive kSeedInternal pages, the
/// root first. Each page holds a 32-byte header and fixed-size slots of
/// (f32 key, u32 value). A group is a header slot (its value = n) and n
/// sorted slots. The slab group opens the root page, and the run groups and
/// then the page groups follow it in order, packed; a group that would
/// straddle a page starts the next one. A slab's or run's value is the slot
/// position of its child group, a page's is its packed RecordRef. A lookup
/// therefore reads at most three pages (the root, the page of a run group
/// and the page of a page group), and a one-page directory one.

/// Writes the directory for `partitions` (StrPartition's order) whose
/// records live at `refs`, appending its pages to `file`, and returns the
/// root page. Partitions whose tiles are all empty give a one-page directory
/// with empty bounds, where every lookup finds nothing. Throws
/// std::runtime_error, writing nothing, when one group holds more slots than
/// a page.
PageId WriteTileDirectory(PageFile* file,
                          const std::vector<PartitionInfo>& partitions,
                          const std::vector<RecordRef>& refs);

/// The record whose stored tile holds the center of `query`'s overlap with
/// the directory's bounds (the union of the stored tiles), or nullopt
/// exactly when that overlap is empty. Reads the directory pages of `file`
/// through `pool`. Throws std::runtime_error on a malformed directory.
std::optional<RecordRef> LocateTile(PageCache* pool, const PageStore& file,
                                    PageId root, const Aabb& query);

}  // namespace flat

#endif  // FLAT_CORE_TILE_DIRECTORY_H_
