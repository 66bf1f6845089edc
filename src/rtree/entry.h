#ifndef FLAT_RTREE_ENTRY_H_
#define FLAT_RTREE_ENTRY_H_

#include <cstdint>
#include <type_traits>

#include "geometry/aabb.h"

namespace flat {

/// One slot of an exact-format R-Tree node (and of a FLAT object page).
///
/// In leaf nodes `id` is the element identifier; in internal nodes it is the
/// PageId of the child node. The paper stores bare MBRs on leaf pages; we add
/// an 8-byte identifier so query results can name the elements they return —
/// a constant factor that affects neither trends nor comparisons, since every
/// index here uses the same slot format. The actual slot sizes and per-page
/// fanouts are *derived*, not quoted: see the static_asserts in rtree/node.h
/// next to NodeCapacity, the one place the numbers live.
struct RTreeEntry {
  Aabb box;
  uint64_t id = 0;
};

static_assert(std::is_trivially_copyable_v<RTreeEntry>,
              "RTreeEntry is serialized to pages by memcpy");
static_assert(sizeof(RTreeEntry) == sizeof(Aabb) + sizeof(uint64_t),
              "no padding: the slot is an Aabb (6 f64) plus a u64 id");

}  // namespace flat

#endif  // FLAT_RTREE_ENTRY_H_
