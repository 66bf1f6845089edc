#ifndef FLAT_RTREE_RTREE_H_
#define FLAT_RTREE_RTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "geometry/aabb.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace flat {

/// Handle to a disk-resident R-Tree rooted at `root`. The tree itself lives in
/// a PageStore (the PageFile it was built into, or a DiskPageFile opened over
/// the saved bytes); all query-time page accesses go through the caller's
/// BufferPool, which is where I/O is accounted.
///
/// All bulkloaders (STR, Hilbert/Morton, PR-Tree, TGS) and the dynamic
/// R*-tree produce trees with the same on-page layout, so this single query
/// engine serves every R-tree baseline. FLAT's seed tree is not queried
/// here: FlatIndex walks it with its own seed-tree walker
/// (core/flat_index.cc). Both charge their reads through the caller's cache.
class RTree {
 public:
  /// Constructs an empty handle (no root; all queries return nothing).
  RTree() = default;

  RTree(const PageStore* file, PageId root, int height)
      : file_(file), root_(root), height_(height) {}

  bool empty() const { return root_ == kInvalidPageId; }

  /// Number of levels; 0 for an empty tree, 1 for a single leaf root.
  int height() const { return height_; }

  PageId root() const { return root_; }

  const PageStore* file() const { return file_; }

  /// Appends the ids of all leaf entries whose box intersects `query`.
  void RangeQuery(BufferPool* pool, const Aabb& query,
                  std::vector<uint64_t>* out) const;

  /// Number of leaf entries whose box intersects `query`.
  size_t RangeCount(BufferPool* pool, const Aabb& query) const;

  /// Appends the ids of all leaf entries whose box intersects the closed
  /// ball around `center` — the paper's structural-neighborhood primitive
  /// ("all elements within a distance of 5 µm", Section III-A). Prunes with
  /// exact box-to-sphere distances, so it reads no more pages than the
  /// bounding-box range query.
  void SphereQuery(BufferPool* pool, const Vec3& center, double radius,
                   std::vector<uint64_t>* out) const;

  /// The `k` entries whose MBRs are closest to `center` (by box-to-point
  /// distance; ties broken arbitrarily), nearest first. Classic best-first
  /// search (Hjaltason & Samet): provably reads the minimum number of nodes
  /// for MBR-distance kNN.
  std::vector<RTreeEntry> KnnQuery(BufferPool* pool, const Vec3& center,
                                   size_t k) const;

  /// Depth-first search for *one* leaf entry intersecting `query`; follows a
  /// single path when possible and backtracks only on dead ends. This is the
  /// overlap-immune "find an arbitrary element in the range" primitive the
  /// paper's seed phase builds on (Section V-B.1).
  std::optional<RTreeEntry> FindAny(BufferPool* pool, const Aabb& query) const;

  /// Structural statistics computed by walking the tree without touching the
  /// buffer pool (no I/O is charged).
  struct TreeStats {
    size_t internal_pages = 0;
    size_t leaf_pages = 0;
    size_t leaf_entries = 0;
    int height = 0;
    /// Sum over leaf pages of pairwise-overlap volume with other leaves is
    /// expensive; instead we expose total leaf MBR volume, a cheap overlap
    /// proxy used by the bulkload-quality ablation.
    double total_leaf_volume = 0.0;
  };
  TreeStats ComputeStats() const;

 private:
  const PageStore* file_ = nullptr;
  PageId root_ = kInvalidPageId;
  int height_ = 0;
};

}  // namespace flat

#endif  // FLAT_RTREE_RTREE_H_
