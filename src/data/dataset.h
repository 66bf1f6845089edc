#ifndef FLAT_DATA_DATASET_H_
#define FLAT_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/aabb.h"
#include "rtree/entry.h"

namespace flat {

/// A named collection of spatial elements plus its universe bounds. All
/// generators produce this; all indexes consume `elements`.
struct Dataset {
  std::string name;
  std::vector<RTreeEntry> elements;
  /// The data-set space (generation volume). Always encloses all elements.
  Aabb bounds;

  size_t size() const { return elements.size(); }

  /// Exhaustive-scan oracle used by the test suites to validate every index.
  std::vector<uint64_t> BruteForceRange(const Aabb& query) const {
    std::vector<uint64_t> result;
    for (const RTreeEntry& e : elements) {
      if (e.box.Intersects(query)) result.push_back(e.id);
    }
    return result;
  }

  /// Tight bounds of the actual elements (may be smaller than `bounds`).
  Aabb ElementBounds() const { return BoundsOf(elements); }
};

}  // namespace flat

#endif  // FLAT_DATA_DATASET_H_
