#ifndef FLAT_SHARD_SHARD_CATALOG_H_
#define FLAT_SHARD_SHARD_CATALOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/flat_index.h"
#include "geometry/aabb.h"

namespace flat {

/// Catalog entry for one shard of a ShardedFlatStore: everything needed to
/// re-attach the shard's FlatIndex (descriptor + PageFile location) and to
/// route queries to it (bounds) without touching its pages.
struct ShardCatalogEntry {
  /// File name of the shard's serialized PageFile, relative to the store
  /// directory (e.g. "shard-0003.pgf"). Never an absolute path, so a store
  /// directory can be moved or copied wholesale.
  std::string page_file_name;
  /// Seed-tree and tile-directory handle inside the shard's PageFile.
  FlatIndex::Descriptor descriptor;
  /// MBR of the shard's elements (union of element MBRs). The routing gate:
  /// a query can only match elements of this shard if it intersects bounds.
  Aabb bounds;
  /// The shard's unstretched STR tile. Tiles of all shards jointly cover the
  /// universe with no gaps; element MBRs may stick out of their tile (which
  /// is why `bounds`, not `tile`, gates routing).
  Aabb tile;
  /// Number of elements stored in this shard.
  uint64_t element_count = 0;
};

/// Versioned, self-describing description of a sharded store: global
/// metadata plus one entry per shard, in shard order (the order queries are
/// scattered and results merged in). Serialized next to the shards' page
/// files; byte-level layout in docs/file_format.md.
struct ShardCatalog {
  /// Page size shared by every shard's PageFile.
  uint32_t page_size = 0;
  /// Monotone store generation: 1 after the initial bulkload, +1 per
  /// compaction. A catalog whose generation regressed relative to the store
  /// directory it is written into (tracked by the `generation.flatgen`
  /// sidecar) is stale — saving or loading it is rejected.
  uint64_t generation = 0;
  /// Sum of element_count over the shards.
  uint64_t total_elements = 0;
  /// Bounds of the whole data set (the STR split's universe).
  Aabb universe;
  std::vector<ShardCatalogEntry> shards;
};

/// Writes `catalog` in the versioned binary format (magic "FLATSHC3",
/// little-endian; see docs/file_format.md). Throws std::runtime_error on
/// stream failure.
void SaveShardCatalog(const ShardCatalog& catalog, std::ostream& out);

/// Reads a catalog previously written by SaveShardCatalog: the "FLATSHC3"
/// layout only. Rejects other magics (the pre-generation "FLATSHC1" and
/// the pre-directory "FLATSHC2" too), truncated streams and implausible
/// field values by throwing std::runtime_error.
ShardCatalog LoadShardCatalog(std::istream& in);

}  // namespace flat

#endif  // FLAT_SHARD_SHARD_CATALOG_H_
